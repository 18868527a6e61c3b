"""Comparing the three PG-as-RDF encodings (the paper's Section 2.3).

Loads one graph under RF, NG and SP; prints the Table 2 cardinality
predictions vs. the measured RDF data; shows the per-model SPARQL text
for Q2 (edges + edge-KVs); verifies every model answers Q1-Q3
identically; and prints a Table 9-style storage report.

Run:  python examples/scheme_comparison.py
Env:  REPRO_SCALE=<egos>  (default 24)
"""

from repro import PropertyGraphRdfStore
from repro.bench.report import render_table, scale_config
from repro.core import measure_property_graph, predict_rdf
from repro.datasets.twitter import generate_twitter, selective_tag

MODELS = ("RF", "NG", "SP")


def main() -> None:
    graph = generate_twitter(scale_config())
    pg = measure_property_graph(graph)

    stores = {}
    for model in MODELS:
        store = PropertyGraphRdfStore(model=model)
        store.load(graph)
        stores[model] = store

    # --- Table 2: predicted vs measured cardinalities -----------------
    rows = []
    for model in MODELS:
        predicted = predict_rdf(pg, model)
        measured = stores[model].cardinalities()
        rows.append([
            model,
            predicted.object_property_quads, measured.object_property_quads,
            predicted.named_graphs, measured.named_graphs,
            predicted.distinct_object_properties,
            measured.distinct_object_properties,
        ])
    print(render_table(
        "Table 2: predicted vs measured RDF cardinalities",
        ["Model", "ObjProp(pred)", "ObjProp(meas)", "Graphs(pred)",
         "Graphs(meas)", "ObjProps(pred)", "ObjProps(meas)"],
        rows,
    ))
    print()

    # --- Q2 text per model ---------------------------------------------
    print("Q2 (vertex pairs + all edge KVs) per model:")
    for model in MODELS:
        print(f"  [{model}] {stores[model].queries.q2_edges_with_kvs()}")
    print()

    # --- Answer equivalence ----------------------------------------------
    tag = selective_tag(graph, target_fraction=0.02)
    checks = {
        "Q1 triangles": lambda q: q.q1_triangles(),
        "Q2 edge KVs": lambda q: q.q2_edges_with_kvs(),
        "Q3 node KVs": lambda q: q.eq4(tag),
    }
    for name, build in checks.items():
        counts = {
            model: len(stores[model].select(build(stores[model].queries)))
            for model in MODELS
        }
        status = "OK" if len(set(counts.values())) == 1 else "MISMATCH"
        print(f"{name}: {counts}  [{status}]")
    print()

    # --- Table 9-style storage report -------------------------------------
    reports = {
        model: stores[model].storage_report().as_megabytes()
        for model in ("NG", "SP")
    }
    columns = ["Model"] + sorted(
        {name for megabytes in reports.values() for name in megabytes},
        key=lambda name: (name == "Total", name),
    )
    rows = [
        [model] + [
            round(reports[model].get(name, 0.0), 2) for name in columns[1:]
        ]
        for model in ("NG", "SP")
    ]
    print(render_table(
        "Table 9 analogue: estimated physical storage (MB)", columns, rows
    ))


if __name__ == "__main__":
    main()

"""Shared fixtures for the benchmark suite.

Each ``bench_*`` file regenerates one of the paper's tables or figures.
The dataset scale is set with ``REPRO_SCALE`` (ego-network count,
default 24; the paper used 973).  Results print paper-style tables so
the run's output can be compared side by side with the paper — see
EXPERIMENTS.md for the expected shapes.
"""

from dataclasses import dataclass
from typing import Dict

import pytest

from repro.bench.report import scale_config
from repro.core import MODEL_NG, MODEL_SP, PropertyGraphRdfStore
from repro.datasets.twitter import connected_tag, generate_twitter, hub_vertex
from repro.obs import QueryCollector
from repro.obs import metrics as _obs
from repro.propertygraph.model import PropertyGraph

#: Models the paper's experiments compare (RF is dropped after §2.3).
EXPERIMENT_MODELS = (MODEL_NG, MODEL_SP)


@dataclass
class BenchContext:
    """Everything a benchmark needs: the graph, both stores, constants."""

    graph: PropertyGraph
    stores: Dict[str, PropertyGraphRdfStore]
    tag: str
    hub_iri: str
    hub_id: int

    @property
    def ng(self) -> PropertyGraphRdfStore:
        return self.stores[MODEL_NG]

    @property
    def sp(self) -> PropertyGraphRdfStore:
        return self.stores[MODEL_SP]


def build_stores() -> BenchContext:
    """Build the Twitter graph at ``REPRO_SCALE`` and its NG/SP stores."""
    graph = generate_twitter(scale_config())
    stores: Dict[str, PropertyGraphRdfStore] = {}
    for model in EXPERIMENT_MODELS:
        store = PropertyGraphRdfStore(model=model)
        store.load(graph)
        stores[model] = store
    hub = hub_vertex(graph)
    return BenchContext(
        graph=graph,
        stores=stores,
        tag=connected_tag(graph),
        hub_iri=stores[MODEL_NG].vocabulary.vertex_iri(hub).value,
        hub_id=hub,
    )


@pytest.fixture(scope="session")
def ctx() -> BenchContext:
    """The Twitter graph and its NG/SP stores, built once per session."""
    return build_stores()


def run_eq(benchmark, store, query: str):
    """Benchmark one SPARQL query with the paper's warm-up methodology.

    The timed rounds run uninstrumented; one extra warm run captures
    the operator counters (index scans, join strategies, push-down
    hits) into ``benchmark.extra_info["counters"]`` so saved runs
    record *why* a query costs what it does, not just the time.
    """
    store.select(query)  # warm the store (buffer-cache analogue)
    result_holder = {}

    def run():
        result_holder["result"] = store.select(query)

    benchmark.pedantic(run, rounds=3, warmup_rounds=1, iterations=1)
    collector = QueryCollector()
    with _obs.collect(collector):
        store.select(query)
    benchmark.extra_info["counters"] = dict(collector.counters)
    return result_holder["result"]

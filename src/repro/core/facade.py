"""`PropertyGraphRdfStore`: the high-level public API.

Loads a property graph into a semantic network under one of the three
PG-as-RDF models, optionally with Table 4's partitioned storage layout
(topology / edge-KV / node-KV partitions as separate semantic models,
plus virtual models for each query type), and exposes SPARQL querying,
update, EXPLAIN, cardinality reporting, storage reporting, and the
round-trip back to a property graph.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.propertygraph.model import PropertyGraph
from repro.rdf.quad import Quad
from repro.core.cardinality import (
    RdfCardinalities,
    measure_property_graph,
    measure_rdf,
    predict_rdf,
)
from repro.core.queries import PgQueryBuilder
from repro.core.roundtrip import rdf_to_property_graph
from repro.core.transform import (
    MODEL_NG,
    PARTITION_EDGE_KV,
    PARTITION_NODE_KV,
    PARTITION_TOPOLOGY,
    PARTITIONS,
    transformer_for,
)
from repro.core.vocabulary import PgVocabulary
from repro.sparql import SelectResult, SparqlEngine
from repro.store import SemanticNetwork, StorageReport, storage_report

#: The index set used in the paper's experiments (Section 4.4); the
#: GPSCM-analogue is only needed when named graphs are used (NG).
NG_INDEXES = ("PCSGM", "PSCGM", "SPCGM", "GSPCM")
SP_INDEXES = ("PCSGM", "PSCGM", "SPCGM")

#: Virtual models per query type (Table 4): edge traversal only needs
#: the topology partition; edge+edge-KV needs topology plus edge KVs;
#: node-KV queries need topology plus node KVs.
VIRTUAL_MODELS = {
    "edges_with_kvs": (PARTITION_TOPOLOGY, PARTITION_EDGE_KV),
    "nodes_with_kvs": (PARTITION_TOPOLOGY, PARTITION_NODE_KV),
    "all": PARTITIONS,
}


class PropertyGraphRdfStore:
    """A property graph stored as RDF under one model (RF / NG / SP)."""

    def __init__(
        self,
        model: str = MODEL_NG,
        vocabulary: Optional[PgVocabulary] = None,
        partitioned: bool = False,
        index_specs: Optional[Sequence[str]] = None,
        default_graph_semantics: str = "union",
    ):
        self.vocabulary = vocabulary if vocabulary is not None else PgVocabulary()
        self.transformer = transformer_for(model, self.vocabulary)
        self.model = self.transformer.model
        self.partitioned = partitioned
        if index_specs is None:
            index_specs = NG_INDEXES if self.model == MODEL_NG else SP_INDEXES
        self.index_specs = tuple(index_specs)
        self.network = SemanticNetwork()
        if partitioned:
            for partition in PARTITIONS:
                self.network.create_model(partition, self.index_specs)
            for name, members in VIRTUAL_MODELS.items():
                self.network.create_virtual_model(name, list(members))
            default_model = "all"
        else:
            self.network.create_model("pg", self.index_specs)
            default_model = "pg"
        self.engine = SparqlEngine(
            self.network,
            prefixes=self.vocabulary.prefixes(),
            default_model=default_model,
            default_graph_semantics=default_graph_semantics,
            pgql_encoding=self.model,
            pgql_vocabulary=self.vocabulary,
        )
        self.queries = PgQueryBuilder(self.model, self.vocabulary)
        self._loaded_graphs: List[str] = []

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def load(self, graph: PropertyGraph) -> Dict[str, int]:
        """Transform and bulk load a property graph; returns per-partition
        quad counts."""
        counts = {partition: 0 for partition in PARTITIONS}
        if self.partitioned:
            buckets: Dict[str, List[Quad]] = {p: [] for p in PARTITIONS}
            for partition, quad in self.transformer.transform_partitioned(graph):
                buckets[partition].append(quad)
            for partition, quads in buckets.items():
                counts[partition] += self.network.bulk_load(partition, quads)
        else:
            all_quads: List[Quad] = []
            for partition, quad in self.transformer.transform_partitioned(graph):
                counts[partition] += 1
                all_quads.append(quad)
            self.network.bulk_load("pg", all_quads)
        self._loaded_graphs.append(graph.name)
        return counts

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------

    def select(self, query: str, model: Optional[str] = None) -> SelectResult:
        return self.engine.select(query, model=model)

    def ask(self, query: str, model: Optional[str] = None) -> bool:
        return self.engine.ask(query, model=model)

    def pgql(self, query: str, model: Optional[str] = None) -> SelectResult:
        """Run a PGQL/Cypher-subset MATCH query against this store's
        encoding (see ``docs/PGQL.md``)."""
        return self.engine.pgql(query, model=model)

    def update(self, update_text: str, model: Optional[str] = None) -> Dict[str, int]:
        if self.partitioned and model is None:
            raise ValueError(
                "partitioned stores need an explicit target partition for updates"
            )
        return self.engine.update(update_text, model=model)

    def explain(
        self,
        query: str,
        model: Optional[str] = None,
        analyze: bool = False,
        language: str = "sparql",
    ):
        """The Table 5 access plan of a SPARQL or PGQL query (with
        ``analyze=True``, the query run under EXPLAIN ANALYZE)."""
        return self.engine.explain(
            query, model=model, analyze=analyze, language=language
        )

    def model_for_query_type(self, query_type: str) -> str:
        """Pick the Table 4 dataset for a query type.

        ``query_type`` is one of ``edge_traversal``, ``edge_with_kvs``,
        ``node_kv`` — unpartitioned stores always use the single model.
        """
        if not self.partitioned:
            return "pg"
        mapping = {
            "edge_traversal": PARTITION_TOPOLOGY,
            "edge_with_kvs": "edges_with_kvs",
            "node_kv": "nodes_with_kvs",
        }
        if query_type not in mapping:
            raise ValueError(f"unknown query type {query_type!r}")
        return mapping[query_type]

    # ------------------------------------------------------------------
    # Inference (Section 5.2's workflow)
    # ------------------------------------------------------------------

    def materialize_entailment(
        self,
        rules=None,
        extra_quads: Optional[Sequence[Quad]] = None,
        model_name: str = "entailed",
    ) -> int:
        """Pre-compute entailments into a separate semantic model.

        Mirrors the paper's use of Oracle's native inference engine:
        the (default-graph view of the) stored data, plus optional
        ontology/linked-data quads, is closed under ``rules`` (default:
        RDFS + the OWL 2 RL subset) and the *inferred* triples are
        materialized into ``model_name``.  A virtual model named
        ``"<default>+entailed"`` unions the data with the entailments
        and is registered as a queryable dataset.

        Returns the number of inferred triples materialized.
        """
        from repro.inference import OWL_RL_RULES, RDFS_RULES, RuleEngine

        if rules is None:
            rules = list(RDFS_RULES) + list(OWL_RL_RULES)
        asserted = [quad.triple() for quad in self.quads()]
        if extra_quads:
            base = self.network.model_names[0] if not self.partitioned else (
                PARTITION_NODE_KV
            )
            self.network.bulk_load(base, extra_quads)
            asserted += [quad.triple() for quad in extra_quads]
        inferred = RuleEngine(rules).inferred_only(asserted)
        if model_name not in self.network.model_names:
            self.network.create_model(model_name, self.index_specs)
        count = self.network.bulk_load(
            model_name, [Quad(t.subject, t.predicate, t.object) for t in inferred]
        )
        members = (
            list(PARTITIONS) if self.partitioned else ["pg"]
        ) + [model_name]
        virtual_name = "data+entailed"
        if virtual_name not in self.network.virtual_model_names:
            self.network.create_virtual_model(virtual_name, members)
        return count

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def quads(self) -> List[Quad]:
        names = PARTITIONS if self.partitioned else ("pg",)
        collected: List[Quad] = []
        for name in names:
            collected.extend(self.network.quads(name))
        return collected

    def cardinalities(self) -> RdfCardinalities:
        return measure_rdf(self.quads())

    def predicted_cardinalities(self, graph: PropertyGraph) -> RdfCardinalities:
        return predict_rdf(measure_property_graph(graph), self.model)

    def storage_report(self) -> StorageReport:
        return storage_report(self.network)

    # ------------------------------------------------------------------
    # Round trip and hybrid traversal
    # ------------------------------------------------------------------

    def to_property_graph(self, name: str = "graph") -> PropertyGraph:
        return rdf_to_property_graph(
            self.quads(), self.model, self.vocabulary, name
        )

    def traversal(self):
        """A Gremlin-style traversal over the stored graph.

        The paper's conclusion suggests procedural traversal "similar to
        the approach of Gremlin" for queries SPARQL property paths
        cannot express; this decodes the stored RDF back to a property
        graph once (cached until the next update/load) and returns a
        :class:`~repro.propertygraph.Traversal` over it.
        """
        from repro.propertygraph.traversal import Traversal

        snapshot = len(self.quads())
        cached = getattr(self, "_traversal_cache", None)
        if cached is None or cached[0] != snapshot:
            graph = self.to_property_graph()
            self._traversal_cache = (snapshot, graph)
        return Traversal(self._traversal_cache[1])

    def __repr__(self) -> str:
        return (
            f"PropertyGraphRdfStore(model={self.model}, "
            f"partitioned={self.partitioned}, graphs={self._loaded_graphs})"
        )

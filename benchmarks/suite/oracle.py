"""Correctness oracles: every op's answer is checked, never skipped.

Three independent sources of truth:

* **native answers** computed from the generated property graph in pure
  Python (point classes, EQ2, EQ4, EQ11 hop counts via
  ``repro.propertygraph.traversal.count_paths``, EQ12 via
  ``count_triangles``);
* **cross-encoding / cross-language digests**: the NG and SP answers of
  a class are multiset-equal, and a PGQL class equals its SPARQL twin;
* a **set oracle** of every acknowledged write on ``durable_lifecycle``
  (a Python set of quads) that the store's contents must equal before
  ``close()`` and after every reopen.

A mismatch is a failed op.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.vocabulary import PgVocabulary
from repro.propertygraph.traversal import count_paths, count_triangles
from repro.rdf.namespace import RDF, RDFS
from repro.rdf.quad import Quad
from repro.rdf.terms import BlankNode, IRI, Literal, XSD_STRING

Row = Tuple[str, ...]


# ----------------------------------------------------------------------
# Canonical cells: the same string for a decoded Term and for its
# SPARQL-results-JSON binding, so in-process and HTTP answers share one
# digest.
# ----------------------------------------------------------------------


def cell(term) -> str:
    if term is None:
        return ""
    if isinstance(term, IRI):
        return "U" + term.value
    if isinstance(term, Literal):
        datatype = term.datatype.value if term.datatype is not None else ""
        if datatype == XSD_STRING:
            datatype = ""
        return f"L{term.lexical}\x1e{datatype}\x1e{term.language or ''}"
    if isinstance(term, BlankNode):
        return "B" + term.label
    raise TypeError(f"not a term: {term!r}")


def _json_cell(binding: Optional[Dict[str, str]]) -> str:
    if binding is None:
        return ""
    kind = binding["type"]
    if kind == "uri":
        return "U" + binding["value"]
    if kind == "bnode":
        return "B" + binding["value"]
    return (
        f"L{binding['value']}\x1e{binding.get('datatype', '')}"
        f"\x1e{binding.get('xml:lang', '')}"
    )


def digest_cells(rows: Iterable[Row]) -> str:
    """Order-independent (multiset) digest of canonical rows."""
    lines = sorted("\x1f".join(row) for row in rows)
    return hashlib.sha1("\n".join(lines).encode("utf-8")).hexdigest()


def digest_result(result) -> Tuple[str, int]:
    """``(digest, row count)`` of a SelectResult or an ASK boolean."""
    if isinstance(result, bool):
        return ("ask:true" if result else "ask:false"), 1
    rows = result.rows
    return digest_cells(tuple(map(cell, row)) for row in rows), len(rows)


def digest_json_body(body: bytes) -> Tuple[str, int]:
    """``(digest, row count)`` of a SPARQL-results-JSON body."""
    document = json.loads(body)
    if "boolean" in document:
        return ("ask:true" if document["boolean"] else "ask:false"), 1
    variables = document["head"]["vars"]
    bindings = document["results"]["bindings"]
    return (
        digest_cells(
            tuple(_json_cell(b.get(v)) for v in variables) for b in bindings
        ),
        len(bindings),
    )


def count_of(result) -> Optional[int]:
    """The integer of a one-row, one-column COUNT result."""
    if isinstance(result, bool) or len(result.rows) != 1:
        return None
    term = result.rows[0][0]
    if not isinstance(term, Literal):
        return None
    try:
        return int(term.lexical)
    except ValueError:
        return None


# ----------------------------------------------------------------------
# Native answers from the property graph
# ----------------------------------------------------------------------


class Expected:
    """What an op must return: a multiset digest with its row count, or
    a bare integer for COUNT classes (whose literal datatype is the
    engine's business)."""

    __slots__ = ("digest", "rows", "count")

    def __init__(self, digest: Optional[str], rows: int, count: Optional[int] = None):
        self.digest = digest
        self.rows = rows
        self.count = count

    def matches(self, result) -> bool:
        if self.count is not None:
            return count_of(result) == self.count
        return digest_result(result) == (self.digest, self.rows)


def _expected_rows(rows: Sequence[Row]) -> Expected:
    return Expected(digest_cells(rows), len(rows))


class GraphOracle:
    """Answers computed from the property graph, NG/union-default-graph
    semantics (a node KV pattern with an unbound subject also matches
    edge KVs, since edges are resources too)."""

    def __init__(self, graph, vocab: PgVocabulary):
        self.graph = graph
        self.vocab = vocab
        self._cache: Dict[Tuple, Expected] = {}
        self._by_tag: Optional[Dict[str, Tuple[list, list]]] = None

    def expected(self, key: Tuple) -> Expected:
        found = self._cache.get(key)
        if found is None:
            found = self._cache[key] = getattr(self, "_" + key[0])(*key[1:])
        return found

    # -- helpers --------------------------------------------------------

    def _v(self, vertex_id: int) -> str:
        return cell(self.vocab.vertex_iri(vertex_id))

    def _kv_rows(self, subject: str, holder) -> List[Row]:
        vocab = self.vocab
        return [
            (subject, cell(vocab.key_iri(k)), cell(vocab.value_literal(v)))
            for k, v in holder.kv_pairs()
        ]

    def _tagged(self, tag: str):
        """(vertices, edges) carrying ``hasTag = tag`` (indexed once)."""
        if self._by_tag is None:
            index: Dict[str, Tuple[list, list]] = {}
            for slot, holders in ((0, self.graph.vertices()), (1, self.graph.edges())):
                for holder in holders:
                    for value in holder.property_values("hasTag"):
                        index.setdefault(value, ([], []))[slot].append(holder)
            self._by_tag = index
        return self._by_tag.get(tag, ([], []))

    # -- classes --------------------------------------------------------

    def _neighbors(self, vertex: int) -> Expected:
        return _expected_rows(
            [(self._v(t),) for t in self.graph.out_neighbors(vertex, "follows")]
        )

    def _node_kvs(self, vertex: int) -> Expected:
        graph, vocab = self.graph, self.vocab
        holder = graph.vertex(vertex)
        rows = [row[1:] for row in self._kv_rows("", holder)]
        edges = graph.out_edges(vertex)
        rows += [
            (cell(vocab.label_iri(e.label)), self._v(e.target)) for e in edges
        ]
        if not rows and not graph.in_edges(vertex):
            rows = [(cell(RDF.type), cell(RDFS.Resource))]
        return _expected_rows(rows)

    def _tag(self, tag: str) -> Expected:
        vertices, edges = self._tagged(tag)
        return _expected_rows(
            [(self._v(v.id),) for v in vertices]
            + [(cell(self.vocab.edge_iri(e.id)),) for e in edges]
        )

    def _followers_of_tag(self, tag: str) -> Expected:
        tagged = {v.id for v in self._tagged(tag)[0]}
        return _expected_rows([
            (self._v(e.source),)
            for e in self.graph.edges()
            if e.label == "follows" and e.target in tagged
        ])

    def _hops(self, vertex: int, hops: int) -> Expected:
        return Expected(None, 1, count_paths(self.graph, vertex, "follows", hops))

    def _edge(self, source: int, target: int) -> Expected:
        present = target in self.graph.out_neighbors(source, "follows")
        return Expected("ask:true" if present else "ask:false", 1)

    def _eq4(self, tag: str) -> Expected:
        vertices, edges = self._tagged(tag)
        rows: List[Row] = []
        for v in vertices:
            rows += self._kv_rows(self._v(v.id), v)
        for e in edges:
            rows += self._kv_rows(cell(self.vocab.edge_iri(e.id)), e)
        return _expected_rows(rows)

    def triangles(self) -> int:
        return count_triangles(self.graph, "follows")

    def hop_count(self, vertex: int, hops: int) -> int:
        return count_paths(self.graph, vertex, "follows", hops)


# ----------------------------------------------------------------------
# Set oracle of acknowledged writes (durable_lifecycle)
# ----------------------------------------------------------------------


class StateOracle:
    """The quads the store must hold: the loaded quads plus every
    acknowledged write, kept as a plain Python set."""

    def __init__(self, quads: Iterable[Quad], vocab: PgVocabulary):
        self.quads: Set[Quad] = set(quads)
        self.vocab = vocab
        #: vertex id -> its current ``k:status`` quad (the generated
        #: graph has none).
        self._status: Dict[int, Quad] = {}

    def _edge_quads(self, edge_id: int, source: int, target: int, tag: str) -> List[Quad]:
        vocab = self.vocab
        edge = vocab.edge_iri(edge_id)
        return [
            Quad(vocab.vertex_iri(source), vocab.label_iri("mentions"),
                 vocab.vertex_iri(target), edge),
            Quad(edge, vocab.key_iri("hasTag"), Literal(tag), edge),
            Quad(edge, vocab.key_iri("weight"), Literal(str(edge_id % 97)), edge),
        ]

    def apply(self, key: Tuple) -> Dict[str, int]:
        """Apply one write; returns the counts the engine must report."""
        kind = key[0]
        quads = self.quads
        if kind == "insert_edge":
            fresh = [q for q in self._edge_quads(*key[1:]) if q not in quads]
            quads.update(fresh)
            return {"inserted": len(fresh), "deleted": 0}
        if kind == "delete_edge":
            doomed = [q for q in self._edge_quads(*key[1:]) if q in quads]
            quads.difference_update(doomed)
            return {"inserted": 0, "deleted": len(doomed)}
        if kind == "set_property":
            _, vertex, value = key
            old = self._status.pop(vertex, None)
            if old is not None:
                quads.discard(old)
            new = Quad(
                self.vocab.vertex_iri(vertex),
                self.vocab.key_iri("status"),
                Literal(value),
            )
            quads.add(new)
            self._status[vertex] = new
            return {"inserted": 1, "deleted": 0 if old is None else 1}
        raise ValueError(f"unknown write {kind!r}")

    def matches(self, store_quads: Iterable[Quad]) -> bool:
        return set(store_quads) == self.quads

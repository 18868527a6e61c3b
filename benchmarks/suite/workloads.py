"""Seeded op sequences for the four benchmark workloads.

Everything a timed window executes is drawn here, up front, from
``random.Random(seed)``; the engine only ever receives the generated
texts.  This module imports nothing from the engine except the
vocabulary/IRI helpers and the SPARQL text builder.

The *dataset* is fixed (``DATASET_SEED``): cycle time on
``scan_analytics`` moved 1.47 s -> 2.15 s between dataset seeds 1 and 3
because the connected tag and the hub change with the graph, which is
wider than every bound in ``BENCHMARK.json``.  ``--seed`` therefore
drives the op streams (Zipf draws, class interleave, write targets,
arrival schedule) over one named dataset, the way the paper ran all of
Section 4.4 on one Twitter graph.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.queries import PgQueryBuilder
from repro.core.vocabulary import PgVocabulary

DATASET_SEED = 42
EGOS = 200
SMOKE_EGOS = 24

WORKLOADS = ("point_lookup", "scan_analytics", "durable_lifecycle", "http_serve")

ZIPF_EXPONENT = 1.1
#: `durable_lifecycle` reads touch only this many hot parameters.
HOT_TEXTS = 64
#: One EQ4-class scan per this many reads on `durable_lifecycle`: rare
#: enough (1.6 % of ops) that p95 lands inside the insert-edge write
#: class and not on the boundary between scans and writes.
SCAN_EVERY = 50
READS_PER_WRITE = 4
CHECKPOINT_EVERY_WRITES = 400
#: New edges on `durable_lifecycle` get ids from here up, far above the
#: generated graph's.
NEW_EDGE_BASE = 10_000_000

SCAN_CLASSES = (
    "EQ3", "EQ4", "EQ7", "EQ8", "EQ9", "EQ10", "EQ11d", "EQ11e", "EQ12",
)


@dataclass(frozen=True)
class Op:
    """One operation: ``lang`` is sparql | pgql | ask | update."""

    cls: str
    lang: str
    text: str
    #: What the oracle needs to compute the expected answer.
    key: Tuple = ()
    #: Store encoding the op runs against (NG or SP).
    enc: str = "NG"

    @property
    def label(self) -> str:
        """Class name, qualified by the encoding when it is not NG."""
        return self.cls if self.enc == "NG" else f"{self.cls}@{self.enc}"


@dataclass(frozen=True)
class GraphFacts:
    """Parameter universes read off the generated graph."""

    vertices: Tuple[int, ...]
    tags: Tuple[str, ...]          # by descending node frequency
    follows: Dict[int, Tuple[int, ...]]
    connected_tag: str
    hub: int
    #: Vertices a `durable_lifecycle` write may touch: outside the hot
    #: read set and not carrying the connected tag, so no read's answer
    #: changes and expected answers can be computed up front.
    write_targets: Tuple[int, ...]


def graph_facts(graph, connected_tag: str, hub: int) -> GraphFacts:
    follows: Dict[int, List[int]] = {}
    for edge in graph.edges():
        if edge.label == "follows":
            follows.setdefault(edge.source, []).append(edge.target)
    counts: Dict[str, int] = {}
    for vertex in graph.vertices():
        for value in vertex.property_values("hasTag"):
            counts[value] = counts.get(value, 0) + 1
    tags = tuple(sorted(counts, key=lambda tag: (-counts[tag], tag)))
    vertices = tuple(sorted(v.id for v in graph.vertices()))
    write_targets = tuple(
        v for v in vertices[HOT_TEXTS:]
        if not graph.vertex(v).has_property_value("hasTag", connected_tag)
    )
    return GraphFacts(
        vertices=vertices,
        tags=tags,
        follows={k: tuple(v) for k, v in follows.items()},
        connected_tag=connected_tag,
        hub=hub,
        write_targets=write_targets,
    )


class Zipf:
    """Zipf(exponent) over ``items`` in their given order: rank = index,
    so the hot parameters are the same on every seed and only the draw
    sequence changes."""

    def __init__(self, items: Sequence, exponent: float = ZIPF_EXPONENT):
        self.items = items
        total = 0.0
        self._cumulative: List[float] = []
        for rank in range(1, len(items) + 1):
            total += 1.0 / rank ** exponent
            self._cumulative.append(total)
        self._total = total

    def draw(self, rng: random.Random):
        point = rng.random() * self._total
        return self.items[bisect.bisect_left(self._cumulative, point)]


# ----------------------------------------------------------------------
# Query texts
# ----------------------------------------------------------------------


def pgql_neighbors(vertex: int) -> str:
    return f"MATCH (n)-[:follows]->(m) WHERE id(n)={vertex} RETURN m"


def sparql_node_kvs(vocab: PgVocabulary, vertex: int) -> str:
    return f"SELECT ?k ?v WHERE {{ <{vocab.vertex_iri(vertex).value}> ?k ?v }}"


def ask_edge(vocab: PgVocabulary, source: int, target: int) -> str:
    return (
        f"ASK {{ <{vocab.vertex_iri(source).value}> r:follows "
        f"<{vocab.vertex_iri(target).value}> }}"
    )


def ekv_hub(hub: int) -> str:
    return (
        f"MATCH (n)-[e:follows]->(m) WHERE id(n)={hub} "
        "RETURN m, properties(e)"
    )


def _point_op(
    cls: str,
    rng: random.Random,
    facts: GraphFacts,
    vocab: PgVocabulary,
    builder: PgQueryBuilder,
    vertices: Zipf,
    tags: Zipf,
) -> Op:
    if cls == "pgql_neighbors":
        vertex = vertices.draw(rng)
        return Op(cls, "pgql", pgql_neighbors(vertex), ("neighbors", vertex))
    if cls == "sparql_node_kvs":
        vertex = vertices.draw(rng)
        return Op(cls, "sparql", sparql_node_kvs(vocab, vertex), ("node_kvs", vertex))
    if cls == "sparql_tag":
        tag = tags.draw(rng)
        return Op(cls, "sparql", builder.eq1(tag), ("tag", tag))
    if cls == "sparql_2hop":
        vertex = vertices.draw(rng)
        text = builder.eq11(vocab.vertex_iri(vertex).value, 2)
        return Op(cls, "sparql", text, ("hops", vertex, 2))
    source = vertices.draw(rng)
    out = facts.follows.get(source, ())
    if out and rng.random() < 0.5:
        target = rng.choice(out)
    else:
        target = vertices.draw(rng)
    return Op("ask_edge", "ask", ask_edge(vocab, source, target), ("edge", source, target))


POINT_CLASSES = (
    "pgql_neighbors", "sparql_node_kvs", "sparql_tag", "sparql_2hop", "ask_edge",
)


def point_lookup_ops(
    facts: GraphFacts, vocab: PgVocabulary, seed: int, count: int
) -> List[Op]:
    """Small-result ops, parameters Zipf over *all* vertices/tags."""
    rng = random.Random(seed)
    builder = PgQueryBuilder("NG", vocab)
    vertices = Zipf(facts.vertices)
    tags = Zipf(facts.tags)
    return [
        _point_op(rng.choice(POINT_CLASSES), rng, facts, vocab, builder, vertices, tags)
        for _ in range(count)
    ]


SCAN_CYCLE_OPS = 21


def scan_cycles(
    facts: GraphFacts, vocab: PgVocabulary, seed: int, cycles: int
) -> List[Op]:
    """``cycles`` passes over the fixed scan-/join-heavy op set on both
    encodings, each pass in a fresh seeded order.

    21 ops per cycle — an odd count, so the median op is one op and not
    the gap between two.  EQ12 on NG is in the set twice: with one run
    each, p95 (1.05 ops from the top of 21) sat exactly on the boundary
    between NG-EQ12 and SP-EQ12, which differ by ~10 %, and flipped
    between them; with two it falls in the middle of the NG-EQ12 pair.

    The order changes every cycle because full garbage collections
    (~65 ms over the loaded stores) fall at fixed points of a fixed op
    sequence: with one order per run the same op absorbed one on every
    cycle, and which op that was — and so the median — depended on the
    seed (44 ms on most seeds, 65 ms on two of ten).
    """
    start = vocab.vertex_iri(facts.hub).value
    cycle: List[Op] = []
    for enc in ("NG", "SP"):
        suite = PgQueryBuilder(enc, vocab).experiment_queries(
            facts.connected_tag, start
        )
        for name in SCAN_CLASSES:
            cycle.append(Op(name, "sparql", suite[name], (name,), enc))
        cycle.append(Op("EKV_hub", "pgql", ekv_hub(facts.hub), ("EKV_hub",), enc))
    cycle.append(next(op for op in cycle if op.cls == "EQ12" and op.enc == "NG"))
    assert len(cycle) == SCAN_CYCLE_OPS
    rng = random.Random(seed)
    ops: List[Op] = []
    for _ in range(cycles):
        rng.shuffle(cycle)
        ops.extend(cycle)
    return ops


# ----------------------------------------------------------------------
# durable_lifecycle: deterministic 4 reads : 1 write interleave
# ----------------------------------------------------------------------


def _insert_edge(vocab: PgVocabulary, edge_id: int, source: int, target: int, tag: str) -> str:
    edge = vocab.edge_iri(edge_id).value
    return (
        f"INSERT DATA {{ GRAPH <{edge}> {{ "
        f"<{vocab.vertex_iri(source).value}> r:mentions "
        f"<{vocab.vertex_iri(target).value}> . "
        f'<{edge}> k:hasTag "{tag}" . <{edge}> k:weight "{edge_id % 97}" }} }}'
    )


def _delete_edge(vocab: PgVocabulary, edge_id: int, source: int, target: int, tag: str) -> str:
    return _insert_edge(vocab, edge_id, source, target, tag).replace(
        "INSERT DATA", "DELETE DATA", 1
    )


def _set_property(vocab: PgVocabulary, vertex: int, value: str) -> str:
    node = vocab.vertex_iri(vertex).value
    return (
        f"DELETE {{ <{node}> k:status ?old }} "
        f'INSERT {{ <{node}> k:status "{value}" }} '
        f"WHERE {{ OPTIONAL {{ <{node}> k:status ?old }} }}"
    )


def durable_ops(
    facts: GraphFacts, vocab: PgVocabulary, seed: int, count: int
) -> List[Op]:
    """Mixed loop: reads over 64 hot parameters (every ``SCAN_EVERY``-th
    an EQ4 scan), and one write after every ``READS_PER_WRITE`` reads
    cycling insert-edge / set-node-property / delete-edge."""
    rng = random.Random(seed)
    builder = PgQueryBuilder("NG", vocab)
    hot_vertices = Zipf(facts.vertices[:HOT_TEXTS])
    hot_tags = Zipf(facts.tags[:HOT_TEXTS])
    scan = Op("EQ4", "sparql", builder.eq4(facts.connected_tag),
              ("eq4", facts.connected_tag))
    ops: List[Op] = []
    live: List[Tuple[int, int, int, str]] = []  # inserted, not yet deleted
    reads = writes = 0
    next_edge = NEW_EDGE_BASE
    while len(ops) < count:
        for _ in range(READS_PER_WRITE):
            reads += 1
            if reads % SCAN_EVERY == 0:
                ops.append(scan)
            else:
                ops.append(_point_op(
                    rng.choice(POINT_CLASSES), rng, facts, vocab, builder,
                    hot_vertices, hot_tags,
                ))
        kind = writes % 3
        writes += 1
        if kind == 2 and live:
            edge_id, source, target, tag = live.pop(rng.randrange(len(live)))
            text = _delete_edge(vocab, edge_id, source, target, tag)
            ops.append(Op("delete_edge", "update", text,
                          ("delete_edge", edge_id, source, target, tag)))
        elif kind == 1:
            vertex = rng.choice(facts.write_targets)
            value = f"s{writes}"
            ops.append(Op("set_property", "update",
                          _set_property(vocab, vertex, value),
                          ("set_property", vertex, value)))
        else:
            # A new label between write targets: a write changes no
            # read's answer, only the data version that invalidates
            # every cached plan.
            source = rng.choice(facts.write_targets)
            target = rng.choice(facts.write_targets)
            tag = f"#bench{next_edge % 7}"
            live.append((next_edge, source, target, tag))
            text = _insert_edge(vocab, next_edge, source, target, tag)
            ops.append(Op("insert_edge", "update", text,
                          ("insert_edge", next_edge, source, target, tag)))
            next_edge += 1
    return ops[:count]


# ----------------------------------------------------------------------
# http_serve: <= 32 distinct texts, 73/20/7 mix, seeded arrivals
# ----------------------------------------------------------------------

HTTP_SMALL, HTTP_PGQL, HTTP_WIDE = "get_small", "post_pgql", "get_wide"


def http_texts(facts: GraphFacts, vocab: PgVocabulary) -> Dict[str, List[Op]]:
    """The distinct request texts per class (31 in total)."""
    builder = PgQueryBuilder("NG", vocab)
    small: List[Op] = []
    # Mid-frequency tags: a few hundred rows at most (the top tags
    # return thousands and would not be "small").
    mid = len(facts.tags) * 5 // 12
    for tag in facts.tags[mid:mid + 10]:
        small.append(Op(HTTP_SMALL, "sparql", builder.eq1(tag), ("tag", tag)))
        small.append(Op(HTTP_SMALL, "sparql", builder.eq2(tag), ("followers_of_tag", tag)))
    pgql = [
        Op(HTTP_PGQL, "pgql", pgql_neighbors(v), ("neighbors", v))
        for v in facts.vertices[:10]
    ]
    wide = [Op(HTTP_WIDE, "sparql", builder.eq4(facts.connected_tag),
               ("eq4", facts.connected_tag))]
    return {HTTP_SMALL: small, HTTP_PGQL: pgql, HTTP_WIDE: wide}


#: Request mix (small GET, POST /pgql, wide GET).  ISSUE 11 sketched
#: 70/20/10; with 10 % wide requests p95 of `closed` sits in the gap
#: between "wide alone" (~25 ms) and "wide overlapping wide" (~48 ms)
#: and flipped 27 <-> 34 ms between same-code runs (19 % range); at 7 %
#: it sits in the dense region below the gap (24.4-25.2 ms, 3 % range).
HTTP_MIX = (73, 20, 7)


def http_ops(texts: Dict[str, List[Op]], seed: int, count: int) -> List[Op]:
    rng = random.Random(seed)
    classes = (HTTP_SMALL, HTTP_PGQL, HTTP_WIDE)
    picks = rng.choices(classes, weights=HTTP_MIX, k=count)
    return [rng.choice(texts[cls]) for cls in picks]


def arrival_schedule(seed: int, rate: float, seconds: float) -> List[float]:
    """Poisson arrival offsets (seconds from phase start) at ``rate``/s."""
    rng = random.Random(seed)
    due: List[float] = []
    now = rng.expovariate(rate)
    while now < seconds:
        due.append(now)
        now += rng.expovariate(rate)
    return due

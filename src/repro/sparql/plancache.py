"""The plan cache: one LRU of compiled plans, keyed on query *shape*.

**Key.**  :func:`lift` replaces the constants a plan does not depend on
— IRIs and literals in triple/path subject and object positions, the
IRI of ``GRAPH <iri>``, and the constant side of a sargable
``FILTER (?v = <const>)`` — by :class:`~repro.sparql.ast.Param` slots
numbered in traversal order.  Predicates, VALUES rows, LIMIT/OFFSET
and every other expression constant stay in the shape, because they
change the plan.  A ``Param`` compares by its index only, so the lifted
frozen AST is itself the key (with the model name): ``id(n)=338`` and
``id(n)=339`` share one entry, and so do a PGQL and a SPARQL query that
lower to the same shape.

**Binding.**  A compiled plan holds no term ID of a query constant:
the compiler numbers every constant its operators read — lifted slots
and the shape's own terms alike — in one table per plan
(:class:`repro.sparql.physical.Constants`).  The engine passes the
lifted values to the executor, whose context resolves the whole table
with one lookup pass per run, against the pinned snapshot; operators
read the IDs by slot.  An absent constant is an empty answer decided
at execute time, so the same cached shape returns the row once the
constant is inserted.

**Invalidation.**  A plan reads the store's statistics (index counts
order the joins), never its data, so DML does not invalidate it.  An
entry is stale when the model's :func:`statistics_epoch` moved since
compile: its index set changed, or its quad count crossed a power of
two.  This is safe under MVCC because execution takes everything
data-dependent — rows, term IDs, the NLJ-vs-hash decision — from the
pinned snapshot it runs against, whichever snapshot the plan was
compiled at; an old plan on new data, or a new plan on an old
snapshot, differs at most in join order.

Thread-safe: the engine may serve queries from multiple threads, and
one cached plan may run concurrently with different bindings.
"""

from __future__ import annotations

import threading
from typing import Dict, Hashable, List, Optional, Tuple

from repro.rdf.terms import Term
from repro.sparql.ast import (
    CompareExpr,
    DescribeQuery,
    FilterPattern,
    GraphGraphPattern,
    GroupPattern,
    MinusPattern,
    OptionalPattern,
    Param,
    Query,
    SubSelectPattern,
    TermExpr,
    TriplePattern,
    UnionPattern,
)
from repro.sparql.expr import constant_equality


def lift(query: Query) -> Tuple[Query, Tuple[Term, ...]]:
    """``(shape, values)``: ``query`` with its liftable constants
    replaced by :class:`Param` slots, and the constants in slot order.

    Every occurrence gets its own slot, so the shape never depends on
    which constants happen to be equal.
    """
    if isinstance(query, DescribeQuery) and query.where is None:
        return query, ()
    values: List[Term] = []
    return _with_where(query, _group(query.where, values)), tuple(values)


def _slot(term: Term, values: List[Term]) -> Param:
    values.append(term)
    return Param(len(values) - 1, term)


def _group(pattern: GroupPattern, values: List[Term]) -> GroupPattern:
    return GroupPattern(
        tuple(_element(element, values) for element in pattern.elements)
    )


def _element(node, values: List[Term]):
    kind = type(node)
    if kind is TriplePattern:
        subject, obj = node.subject, node.object
        if isinstance(subject, str) and isinstance(obj, str):
            return node
        return TriplePattern(
            subject if isinstance(subject, str) else _slot(subject, values),
            node.predicate,
            obj if isinstance(obj, str) else _slot(obj, values),
        )
    if kind is FilterPattern:
        expression = node.expression
        if constant_equality(expression) is None:
            return node
        left, right = expression.left, expression.right
        if isinstance(left, TermExpr):
            left = TermExpr(_slot(left.term, values))
        else:
            right = TermExpr(_slot(right.term, values))
        return FilterPattern(CompareExpr("=", left, right))
    if kind is GraphGraphPattern:
        graph = node.graph
        return GraphGraphPattern(
            graph if isinstance(graph, str) else _slot(graph, values),
            _group(node.group, values),
        )
    if kind is OptionalPattern or kind is MinusPattern:
        return kind(_group(node.group, values))
    if kind is UnionPattern:
        return UnionPattern(
            tuple(_group(branch, values) for branch in node.branches)
        )
    if kind is GroupPattern:
        return _group(node, values)
    if kind is SubSelectPattern:
        inner = node.query
        return SubSelectPattern(_with_where(inner, _group(inner.where, values)))
    return node  # BIND, VALUES: their constants are part of the shape


def _with_where(query, where):
    """``dataclasses.replace(query, where=where)`` without re-running the
    frozen ``__init__``, which is over half of a point query's lift."""
    shape = object.__new__(type(query))
    shape.__dict__.update(query.__dict__, where=where)
    return shape


def statistics_epoch(model) -> Hashable:
    """What a compiled plan depends on: the model's index set and the
    power of two its quad count lies below (per member, for a virtual
    model).  Entries compiled at another epoch are stale."""
    members = getattr(model, "members", None)
    if members is not None:
        return tuple((m.name, statistics_epoch(m)) for m in members)
    return tuple(model.index_specs), len(model).bit_length()


class PlanCache:
    """LRU cache of compiled plans, invalidated by statistics epoch.

    Recency is a use counter per entry, so a hit hashes and compares
    its (deep, frozen) key only once; an eviction scans the entries.
    """

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        #: key -> [epoch compiled at, plan, last use]
        self._entries: Dict[Hashable, list] = {}
        self._uses = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable, epoch: Hashable) -> Optional[object]:
        """Return the cached plan, or ``None`` on a miss.

        An entry compiled at a different ``epoch`` is stale: it is
        discarded and reported as a miss.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            if entry[0] != epoch:
                del self._entries[key]
                self.misses += 1
                return None
            self._uses += 1
            entry[2] = self._uses
            self.hits += 1
            return entry[1]

    def put(self, key: Hashable, epoch: Hashable, plan: object) -> int:
        """Store a plan; returns the number of entries evicted (0 or 1)."""
        with self._lock:
            self._uses += 1
            self._entries[key] = [epoch, plan, self._uses]
            evicted = 0
            while len(self._entries) > self.capacity:
                victim = min(
                    self._entries.items(), key=lambda item: item[1][2]
                )[0]
                del self._entries[victim]
                evicted += 1
            self.evictions += evicted
            return evicted

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def keys(self) -> list:
        """Current cache keys, LRU-first (introspection/tests only)."""
        with self._lock:
            entries = sorted(self._entries.items(), key=lambda item: item[1][2])
            return [key for key, _ in entries]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

"""BGP planning: join order and the NLJ-vs-hash join decision.

The planner mirrors the behaviour the paper attributes to Oracle:

* every triple pattern is answered from a semantic network index,
  chosen by longest usable key prefix (Table 5's access plans);
* patterns are greedily ordered by estimated cardinality, preferring
  patterns that share variables with what is already bound (index
  nested-loop join);
* when the accumulated intermediate result is large relative to a full
  scan of the next pattern, execution switches to a hash join with
  a full/range scan of the probe side — the paper observes Oracle doing
  exactly this for the 3/4/5-hop and triangle queries.

One deviation: a BGP whose join graph has a cycle (the triangle query,
EQ12) does not run pattern by pattern.  The physical layer compiles it
to one trie join (:class:`repro.sparql.physical.TrieJoinOp`) that binds
one variable at a time, taking its variable order from this pattern
order; the NLJ-vs-hash decision applies to acyclic BGPs only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple, Union

#: A pattern slot: a bound term ID or a variable name.
Slot = Union[int, str]

#: Graph context for a BGP: ``None`` = union default graph (match any
#: graph), an int = that graph only, a str = GRAPH variable (named
#: graphs only, binding the variable).  A compiled plan may also carry
#: the term (or lifted slot) of ``GRAPH <iri>``, resolved to its ID
#: when the plan runs.
GraphContext = Union[None, int, str]

#: Number of input rows beyond which a hash join is considered.
HASH_JOIN_MIN_ROWS = 4096

#: Hash join is chosen when the probe-side scan is at most this many
#: times larger than the input row count.
HASH_JOIN_SCAN_FACTOR = 8


@dataclass(frozen=True)
class EncodedPattern:
    """A triple pattern with constants resolved to term IDs."""

    subject: Slot
    predicate: Slot
    object: Slot

    def variables(self) -> Set[str]:
        return {slot for slot in (self.subject, self.predicate, self.object)
                if isinstance(slot, str)}

    def store_pattern(
        self, graph: GraphContext
    ) -> Tuple[Optional[int], Optional[int], Optional[int], Optional[int]]:
        """The (s, p, c, g) pattern for an index scan with no variable bound."""
        return (
            self.subject if isinstance(self.subject, int) else None,
            self.predicate if isinstance(self.predicate, int) else None,
            self.object if isinstance(self.object, int) else None,
            graph if isinstance(graph, int) else None,
        )


def order_patterns(
    patterns: Sequence[EncodedPattern],
    model,
    graph: GraphContext,
    initially_bound: Set[str] = frozenset(),
) -> List[EncodedPattern]:
    """Greedy join ordering.

    Repeatedly picks the unplaced pattern with the lowest estimated
    cardinality given currently bound variables, refusing cartesian
    products while any connected pattern remains.
    """
    remaining = list(patterns)
    bound: Set[str] = set(initially_bound)
    ordered: List[EncodedPattern] = []
    while remaining:
        best_index = None
        best_score: Optional[Tuple[int, int]] = None
        for i, pattern in enumerate(remaining):
            variables = pattern.variables()
            connected = bool(variables & bound) or not bound or not variables
            estimate = _estimate_with_bound(pattern, model, graph, bound)
            score = (0 if connected else 1, estimate)
            if best_score is None or score < best_score:
                best_score = score
                best_index = i
        chosen = remaining.pop(best_index)
        ordered.append(chosen)
        bound |= chosen.variables()
    return ordered


def _estimate_with_bound(
    pattern: EncodedPattern, model, graph: GraphContext, bound: Set[str]
) -> int:
    """Cardinality estimate for a pattern given bound variables.

    Constants use exact index counts; a bound variable position is
    credited with an (optimistic) selectivity of 1 because an index
    NLJ will probe it with a concrete value.
    """
    base = model.estimate(pattern.store_pattern(graph))
    bound_vars = sum(
        1
        for slot in (pattern.subject, pattern.predicate, pattern.object)
        if isinstance(slot, str) and slot in bound
    )
    # Each bound variable divides the estimate; use a crude factor that
    # keeps patterns with more bound positions earlier in the order.
    for _ in range(bound_vars):
        base = max(1, base // 1024)
    return base


@dataclass(frozen=True)
class JoinDecision:
    """The NLJ-vs-hash choice plus the numbers that triggered it.

    Captured so EXPLAIN ANALYZE can show *why* a strategy fired (the
    paper reasons about exactly this switch for the 3/4/5-hop and
    triangle queries).
    """

    method: str  # "NLJ" | "hash join"
    input_rows: int
    estimate: int
    min_rows: int = HASH_JOIN_MIN_ROWS
    scan_factor: int = HASH_JOIN_SCAN_FACTOR

    def describe(self) -> str:
        if self.method == "hash join":
            return (
                f"hash join: in={self.input_rows} >= {self.min_rows} "
                f"and est={self.estimate} <= in*{self.scan_factor}"
            )
        if self.input_rows < self.min_rows:
            return f"NLJ: in={self.input_rows} < {self.min_rows}"
        return (
            f"NLJ: est={self.estimate} > "
            f"in={self.input_rows} * {self.scan_factor}"
        )


def decide_join(input_rows: int, pattern_estimate: int) -> JoinDecision:
    """NLJ vs hash join decision (see module docstring)."""
    if (
        input_rows >= HASH_JOIN_MIN_ROWS
        and pattern_estimate <= input_rows * HASH_JOIN_SCAN_FACTOR
    ):
        method = "hash join"
    else:
        method = "NLJ"
    return JoinDecision(method, input_rows, pattern_estimate)


def describe_bound(slots, bound: Set[str], decode) -> str:
    """Human-readable bound-position list for EXPLAIN, Table 5 style.

    ``slots`` are a pattern's subject, predicate and object: variables
    (strings) and constants, rendered by ``decode``.
    """
    parts = []
    for letter, slot in zip("SPC", slots):
        if not isinstance(slot, str):
            parts.append(f"{letter}={decode(slot)}")
        elif slot in bound:
            parts.append(f"{letter}=?{slot}")
    return " and ".join(parts) if parts else "unbound"

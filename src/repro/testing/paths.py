"""The reference property-path walker: the differential suite's oracle
for paths.

Production never runs this module: the pipeline lowers sequences,
alternatives and inverses to pattern steps and runs repetition in its
batched ``PathClosure`` operator (:mod:`repro.sparql.physical`).  The
reference evaluator (:mod:`repro.testing.reference`) walks paths here,
so the two sides of the differential tests share no path code.

Implements SPARQL 1.1 property paths over the ID-encoded store:

* ``iri`` — a single link,
* ``^path`` — inverse,
* ``path/path`` — sequence (join semantics, multiplicity preserved),
* ``path|path`` — alternative (bag union),
* ``path*``, ``path+``, ``path?`` — repetition with *set* semantics
  (no duplicate results), per the W3C "simple paths" amendment.

Sequences and alternatives preserve multiplicity because the standard
translates them to joins/unions; EQ11's path counts (which exceed the
node count by orders of magnitude) depend on this.  Evaluation from a
bound endpoint propagates a node->multiplicity frontier instead of
materializing each path, which is what keeps the paper's 5-hop query
(257 million paths) feasible.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Set, Tuple

from repro.sparql.ast import (
    Path,
    PathAlternative,
    PathInverse,
    PathLink,
    PathNegated,
    PathRepeat,
    PathSequence,
)
from repro.sparql.errors import EvaluationError

GraphId = Optional[int]  # None = union default graph


class PathEvaluator:
    """Evaluates paths against one model (or virtual model)."""

    def __init__(self, model, encode_term, deadline=None):
        self._model = model
        self._encode = encode_term
        #: Optional cooperative deadline; frontier loops tick it so a
        #: runaway closure (EQ11-style) aborts instead of spinning.
        self._deadline = deadline

    def _tick(self) -> None:
        if self._deadline is not None:
            self._deadline.tick()

    # ------------------------------------------------------------------
    # Link-level scans
    # ------------------------------------------------------------------

    def _links(self, path, node: Optional[int], graph: GraphId, forward: bool):
        """``(start, end)`` of every link of ``path`` (an IRI or a
        negated set) leaving ``node`` (``None``: any node); forward, or
        walking the links backward."""
        if isinstance(path, PathNegated):
            excluded = frozenset(filter(None, map(self._encode, path.iris)))
            predicate = None
        else:
            excluded = frozenset()
            predicate = self._encode(path.iri)
            if predicate is None:
                return
        probe = (node, predicate, None, graph) if forward else (
            None, predicate, node, graph
        )
        for subject, p, obj, _ in self._model.scan(probe):
            self._tick()
            if p not in excluded:
                yield (subject, obj) if forward else (obj, subject)

    # ------------------------------------------------------------------
    # Evaluation from a bound end with a frontier of (node -> multiplicity)
    # ------------------------------------------------------------------

    def ends_from(
        self, path: Path, starts: Dict[int, int], graph: GraphId
    ) -> Dict[int, int]:
        """All path ends reachable from ``starts``, with multiplicities."""
        return self.walk(path, starts, graph, forward=True)

    def starts_to(
        self, path: Path, ends: Dict[int, int], graph: GraphId
    ) -> Dict[int, int]:
        """All path starts reaching ``ends``, with multiplicities."""
        return self.walk(path, ends, graph, forward=False)

    def walk(
        self, path: Path, frontier: Dict[int, int], graph: GraphId, forward: bool
    ) -> Dict[int, int]:
        """The nodes reached from ``frontier`` along ``path`` (against
        it when not ``forward``), with multiplicities."""
        reached: Dict[int, int] = {}
        if isinstance(path, (PathLink, PathNegated)):
            for node, mult in frontier.items():
                for _, end in self._links(path, node, graph, forward):
                    reached[end] = reached.get(end, 0) + mult
            return reached
        if isinstance(path, PathInverse):
            return self.walk(path.inner, frontier, graph, not forward)
        if isinstance(path, PathSequence):
            for step in path.steps if forward else reversed(path.steps):
                frontier = self.walk(step, frontier, graph, forward)
                if not frontier:
                    return {}
            return frontier
        if isinstance(path, PathAlternative):
            for option in path.options:
                for node, mult in self.walk(option, frontier, graph, forward).items():
                    reached[node] = reached.get(node, 0) + mult
            return reached
        if isinstance(path, PathRepeat):
            for start, mult in frontier.items():
                for node in self._repeat_reachable(path, start, graph, forward):
                    # Set semantics: multiplicity 1 per (start, end) pair,
                    # scaled by the start's incoming multiplicity.
                    reached[node] = reached.get(node, 0) + mult
            return reached
        raise EvaluationError(f"unsupported path {path!r}")

    # ------------------------------------------------------------------
    # All-pairs evaluation
    # ------------------------------------------------------------------

    def pairs(self, path: Path, graph: GraphId) -> Iterator[Tuple[int, int, int]]:
        """All (start, end, multiplicity) tuples of the path."""
        if isinstance(path, (PathLink, PathNegated)):
            for start, end in self._links(path, None, graph, True):
                yield start, end, 1
            return
        if isinstance(path, PathInverse):
            for start, end, mult in self.pairs(path.inner, graph):
                yield end, start, mult
            return
        if isinstance(path, PathSequence):
            first, rest = path.steps[0], path.steps[1:]
            # Group the first step by start node, then push a frontier
            # through the remaining steps.
            by_start: Dict[int, Dict[int, int]] = {}
            for start, end, mult in self.pairs(first, graph):
                bucket = by_start.setdefault(start, {})
                bucket[end] = bucket.get(end, 0) + mult
            tail = PathSequence(rest) if len(rest) > 1 else rest[0]
            for start, frontier in by_start.items():
                for end, mult in self.ends_from(tail, frontier, graph).items():
                    yield start, end, mult
            return
        if isinstance(path, PathAlternative):
            for option in path.options:
                yield from self.pairs(option, graph)
            return
        if isinstance(path, PathRepeat):
            for start in self._repeat_domain(path, graph):
                self._tick()
                for end in self._repeat_reachable(path, start, graph, forward=True):
                    yield start, end, 1
            return
        raise EvaluationError(f"unsupported path {path!r}")

    # ------------------------------------------------------------------
    # Repetition (set semantics)
    # ------------------------------------------------------------------

    def _step_once(
        self, path: Path, node: int, graph: GraphId, forward: bool
    ) -> Set[int]:
        return set(self.walk(path, {node: 1}, graph, forward))

    def _repeat_reachable(
        self, path: PathRepeat, start: int, graph: GraphId, forward: bool
    ) -> Set[int]:
        inner = path.inner
        if not path.unbounded:  # ZeroOrOne
            result = self._step_once(inner, start, graph, forward)
            result.add(start)
            return result
        if path.minimum == 0:  # ZeroOrMore: closure seeded with the start
            return self._closure({start}, inner, graph, forward)
        # OneOrMore: closure seeded with the one-step neighbours, so the
        # start itself is included only when it lies on a cycle.
        first = self._step_once(inner, start, graph, forward)
        return self._closure(first, inner, graph, forward)

    def _closure(
        self, seeds: Set[int], inner: Path, graph: GraphId, forward: bool
    ) -> Set[int]:
        visited = set(seeds)
        frontier = set(seeds)
        while frontier:
            next_frontier: Set[int] = set()
            for node in frontier:
                self._tick()
                for neighbor in self._step_once(inner, node, graph, forward):
                    if neighbor not in visited:
                        visited.add(neighbor)
                        next_frontier.add(neighbor)
            frontier = next_frontier
        return visited

    def _repeat_domain(self, path: PathRepeat, graph: GraphId) -> Set[int]:
        """Candidate start nodes for an all-pairs repetition.

        A path that may have zero length (``p*``, ``p?``) starts at
        every subject and object of the active graph, as SPARQL 1.1
        defines it, and so does one with a negated set, whose links
        have no constant predicate; otherwise ``p+`` starts only where
        the inner path's IRI links start or end.
        """
        nodes: Set[int] = set()
        links = list(_links_of(path.inner))
        if path.minimum == 0 or any(
            isinstance(link, PathNegated) for link in links
        ):
            for quad in self._model.scan((None, None, None, graph)):
                self._tick()
                nodes.update((quad[0], quad[2]))
            return nodes
        for link in links:
            for start, end in self._links(link, None, graph, True):
                nodes.update((start, end))
        return nodes


def _links_of(path: Path) -> Iterator[Path]:
    """The links (IRIs and negated sets) of ``path``."""
    if isinstance(path, (PathLink, PathNegated)):
        yield path
    elif isinstance(path, (PathInverse, PathRepeat)):
        yield from _links_of(path.inner)
    elif isinstance(path, (PathSequence, PathAlternative)):
        parts = path.steps if isinstance(path, PathSequence) else path.options
        for part in parts:
            yield from _links_of(part)

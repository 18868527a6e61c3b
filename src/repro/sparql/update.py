"""SPARQL 1.1 Update execution.

The paper (Section 2.1) notes that updates in the RDF model reduce to
DELETE + INSERT of quads, and that update cost is dominated by locating
the affected quads — i.e. by query performance.  This module implements
INSERT DATA / DELETE DATA / DELETE-INSERT-WHERE / CLEAR against a
semantic model; a WHERE clause runs through the same compiled pipeline
(algebra → optimizer → physical operators) as a query.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.rdf.quad import Quad
from repro.sparql import algebra as A
from repro.sparql.ast import (
    ClearUpdate,
    DeleteDataUpdate,
    InsertDataUpdate,
    ModifyUpdate,
    QuadPattern,
    UpdateRequest,
)
from repro.sparql.deadline import Deadline
from repro.sparql.errors import EvaluationError
from repro.sparql.executor import instantiate
from repro.sparql.optimize import optimize
from repro.sparql.physical import ExecContext, compile_plan


class UpdateExecutor:
    """Executes update requests against one base model.

    ``deadline`` bounds the expensive half of an update — locating the
    affected quads (the WHERE evaluation and template instantiation,
    which the paper notes dominate update cost).  It is checked before
    each operation starts applying changes, never mid-apply, so an
    aborted update leaves the store untouched by the aborted operation.

    ``filter_pushdown`` selects the WHERE group's rewrite rules, as the
    engine's setting does for queries.
    """

    def __init__(
        self,
        network,
        model_name: str,
        union_default_graph: bool = True,
        deadline: Optional[Deadline] = None,
        filter_pushdown: bool = True,
    ):
        self._network = network
        self._model_name = model_name
        self._union_default = union_default_graph
        self._filter_pushdown = filter_pushdown
        self._deadline = deadline

    def execute(self, request: UpdateRequest) -> Dict[str, int]:
        """Run all operations; returns counts of inserted/deleted quads."""
        inserted = 0
        deleted = 0
        for operation in request.operations:
            if self._deadline is not None:
                self._deadline.check()
            if isinstance(operation, InsertDataUpdate):
                for quad in self._ground_quads(operation.quads):
                    if self._network.insert(self._model_name, quad):
                        inserted += 1
            elif isinstance(operation, DeleteDataUpdate):
                for quad in self._ground_quads(operation.quads):
                    if self._network.delete(self._model_name, quad):
                        deleted += 1
            elif isinstance(operation, ModifyUpdate):
                add, remove = self._run_modify(operation)
                deleted += remove
                inserted += add
            elif isinstance(operation, ClearUpdate):
                deleted += self._run_clear(operation)
            else:
                raise EvaluationError(f"unsupported update {operation!r}")
        return {"inserted": inserted, "deleted": deleted}

    def _ground_quads(self, templates: Tuple[QuadPattern, ...]) -> List[Quad]:
        quads = []
        for template in templates:
            parts = (
                template.subject, template.predicate, template.object,
                template.graph,
            )
            if any(isinstance(part, str) for part in parts):
                raise EvaluationError("DATA operations need ground quads")
            quads.append(
                Quad(template.subject, template.predicate, template.object,
                     template.graph)
            )
        return quads

    def _run_modify(self, operation: ModifyUpdate) -> Tuple[int, int]:
        rows, schema = self._where_rows(operation)
        index = {v: i for i, v in enumerate(schema)}
        term_of = self._network.values.term
        to_delete: List[Quad] = []
        to_insert: List[Quad] = []
        for row in rows:
            if self._deadline is not None:
                self._deadline.tick()
            for template in operation.delete_templates:
                quad = instantiate(template, row, index, term_of)
                if quad is not None:
                    to_delete.append(quad)
            for template in operation.insert_templates:
                quad = instantiate(template, row, index, term_of)
                if quad is not None:
                    to_insert.append(quad)
        deleted = sum(
            1 for quad in to_delete if self._network.delete(self._model_name, quad)
        )
        inserted = sum(
            1 for quad in to_insert if self._network.insert(self._model_name, quad)
        )
        return inserted, deleted

    def _where_rows(self, operation: ModifyUpdate):
        """The WHERE solutions as ``(rows, schema)``.

        Compiled and run per operation against the live network, so
        operation *n* sees operations 1..n-1 of the same request.  The
        rows are drained completely before the caller's first write: a
        lazy scan over pages that are being mutated would be a bug.
        """
        model = self._network.model(self._model_name)
        templates = operation.delete_templates + operation.insert_templates
        templated = frozenset(
            part
            for template in templates
            for part in (
                template.subject, template.predicate, template.object,
                template.graph,
            )
            if isinstance(part, str)
        )
        plan = optimize(
            A.lower_group(
                operation.where, pushdown=self._filter_pushdown
            ),
            filter_pushdown=self._filter_pushdown,
            protected=templated,
        )
        root = compile_plan(
            plan, self._network, model, self._union_default,
            self._filter_pushdown,
        )
        ctx = ExecContext(
            self._network,
            model,
            deadline=self._deadline,
            streaming=False,
            constants=root.constants,
        )
        return [row for row, _ in root.run(ctx)], root.schema

    def _run_clear(self, operation: ClearUpdate) -> int:
        # Routed through the network (not the model) so durable stores
        # journal the CLEAR in their write-ahead log.
        return self._network.clear_model(self._model_name, operation.graph)

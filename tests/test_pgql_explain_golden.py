"""Golden EXPLAIN snapshots for the PGQL experiment suite.

Mirrors ``test_explain_golden.py`` for the PGQL front-end: the full
logical/optimized/physical EXPLAIN output of every compiled PGQL EQ
query (NG encoding) is pinned under ``tests/golden/explain/pgql_*.txt``.
Any compiler or optimizer change that alters a plan shows up as a
readable diff.  Regenerate intentionally with::

    UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_pgql_explain_golden.py -q

The snapshots double as proof that the shared optimizer applies to
compiled PGQL plans with zero new execution code: the ``id(n) =``
equality seeds an IndexScan (filter pushdown), and ORDER BY + LIMIT
fuses into a top-k sort.
"""

import os
import pathlib

import pytest

from repro.core import PropertyGraphRdfStore
from repro.datasets.twitter import (
    TwitterConfig,
    connected_tag,
    generate_twitter,
    hub_vertex,
)
from repro.pgql import pgql_experiment_queries

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "explain"


@pytest.fixture(scope="module")
def ng_setup():
    graph = generate_twitter(TwitterConfig(egos=5, seed=13))
    store = PropertyGraphRdfStore(model="NG")
    store.load(graph)
    # Pin the batch size so snapshots are stable regardless of the
    # REPRO_BATCH_SIZE CI leg the suite happens to run under.
    store.engine.batch_size = 1024
    tag = connected_tag(graph)
    hub = hub_vertex(graph)
    suite = pgql_experiment_queries(tag, hub)
    # A top-k variant: EQ9's degree histogram truncated to 3 rows must
    # compile to a fused top-k sort, same as its SPARQL counterpart.
    suite["EQ9_topk"] = suite["EQ9"] + " LIMIT 3"
    return store, suite


def _explain(store, query):
    return "\n".join(store.engine.explain_plan(query, language="pgql"))


class TestGoldenPgqlExplainSnapshots:
    def test_every_pgql_query_matches_its_snapshot(self, ng_setup):
        store, suite = ng_setup
        update = bool(os.environ.get("UPDATE_GOLDEN"))
        mismatches = []
        for name, query in sorted(suite.items()):
            text = _explain(store, query) + "\n"
            path = GOLDEN_DIR / f"pgql_{name}.txt"
            if update:
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text)
                continue
            if not path.exists():
                mismatches.append(f"{name}: missing golden file {path}")
                continue
            expected = path.read_text()
            if text != expected:
                mismatches.append(
                    f"{name}: EXPLAIN output changed; rerun with "
                    f"UPDATE_GOLDEN=1 if intended.\n--- golden\n{expected}"
                    f"\n--- actual\n{text}"
                )
        assert not mismatches, "\n\n".join(mismatches)

    def test_snapshot_coverage(self, ng_setup):
        _, suite = ng_setup
        assert len(suite) == 17  # 16 EQ queries + the top-k variant

    def test_snapshots_label_the_language(self, ng_setup):
        store, suite = ng_setup
        text = _explain(store, suite["EQ1"])
        assert "Query language: pgql" in text

    def test_id_equality_compiles_to_a_seeded_scan(self, ng_setup):
        """``WHERE id(n) = <v>`` must reach the optimizer as a sargable
        term — the snapshot shows the constant seeded into the scan
        rather than a post-hoc filter."""
        store, suite = ng_setup
        text = _explain(store, suite["EQ11a"])
        assert "Seed(?n = " in text
        physical = text.split("Physical plan", 1)[-1]
        assert "Filter(" not in physical

    def test_order_by_limit_fuses_into_topk(self, ng_setup):
        store, suite = ng_setup
        text = _explain(store, suite["EQ9_topk"])
        assert "top=" in text
        unbounded = _explain(store, suite["EQ9"])
        assert "top=" not in unbounded

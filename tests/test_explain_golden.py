"""Golden EXPLAIN snapshots for the Table 10 experiment queries.

Pins the full pipeline plan (logical -> optimized -> physical) for
every EQ query on a fixed synthetic Twitter dataset.  A plan change —
a new rewrite rule, a different join order, a physical operator rename
— shows up as a readable diff against ``tests/golden/explain/``.

Regenerate intentionally with::

    UPDATE_GOLDEN=1 pytest tests/test_explain_golden.py
"""

import json
import os
import pathlib

import pytest

from repro.cli import main as cli_main
from repro.core import MODEL_NG, PropertyGraphRdfStore
from repro.datasets.twitter import (
    TwitterConfig,
    connected_tag,
    generate_twitter,
    hub_vertex,
)
from repro.rdf import serialize_nquads

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden" / "explain"


@pytest.fixture(scope="module")
def ng_setup():
    graph = generate_twitter(TwitterConfig(egos=5, seed=13))
    store = PropertyGraphRdfStore(model=MODEL_NG)
    store.load(graph)
    # Snapshots embed the plan header's batch size; pin it so the
    # REPRO_BATCH_SIZE=1 CI leg diffs plans, not configuration.
    store.engine.batch_size = 1024
    tag = connected_tag(graph)
    hub_iri = store.vocabulary.vertex_iri(hub_vertex(graph)).value
    suite = store.queries.experiment_queries(tag, hub_iri)
    return store, suite


def _names(suite):
    return sorted(suite)


class TestGoldenExplainSnapshots:
    def test_every_eq_query_matches_its_snapshot(self, ng_setup):
        store, suite = ng_setup
        update = bool(os.environ.get("UPDATE_GOLDEN"))
        if update:
            GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        mismatches = []
        for name in _names(suite):
            actual = "\n".join(store.engine.explain_plan(suite[name])) + "\n"
            path = GOLDEN_DIR / f"{name}.txt"
            if update:
                path.write_text(actual)
                continue
            assert path.exists(), (
                f"missing golden snapshot {path}; run with UPDATE_GOLDEN=1"
            )
            if path.read_text() != actual:
                mismatches.append(name)
        assert not mismatches, (
            f"plan snapshots changed for {mismatches}; inspect the diff "
            "and regenerate with UPDATE_GOLDEN=1 if intentional"
        )

    def test_snapshots_cover_the_full_suite(self, ng_setup):
        _, suite = ng_setup
        assert len(suite) == 16  # EQ1-EQ10, EQ11a-e, EQ12

    def test_snapshots_name_physical_operators(self, ng_setup):
        store, suite = ng_setup
        text = "\n".join(store.engine.explain_plan(suite["EQ1"]))
        assert "IndexScan" in text
        # EQ3's chain starts from a sargable-seeded column, so every
        # pattern step joins against prior bindings.
        eq3 = "\n".join(store.engine.explain_plan(suite["EQ3"]))
        assert "IndexNestedLoopJoin" in eq3
        assert "Seed(?t" in eq3
        # EQ11c's 3-hop path is one probe step per hop, with each hop
        # merged away after the step that reads it.
        path_text = "\n".join(store.engine.explain_plan(suite["EQ11c"]))
        assert path_text.count("IndexNestedLoopJoin") == 2
        assert path_text.count("Merge(") == 2


class TestExplainJsonRoundTrip:
    def test_engine_json_is_serializable_and_faithful(self, ng_setup):
        store, suite = ng_setup
        document = store.engine.explain_plan(suite["EQ8"], format="json")
        reloaded = json.loads(json.dumps(document))
        assert reloaded == document
        assert reloaded["form"] == "select"
        assert {"logical", "optimized", "physical"} <= set(reloaded)

        def ops(node):
            yield node["op"]
            for child in node.get("children", ()):
                yield from ops(child)

        assert "BGP" in set(ops(reloaded["logical"]))
        physical_ops = set(ops(reloaded["physical"]))
        assert "Project" in physical_ops

    def test_cli_format_json_round_trips(self, ng_setup, tmp_path, capsys):
        store, suite = ng_setup
        data = tmp_path / "data.nq"
        data.write_text(serialize_nquads(store.quads()))
        assert cli_main([
            "explain", str(data), "--format=json", "-q", suite["EQ1"],
        ]) == 0
        captured = capsys.readouterr().out
        document = json.loads(captured)
        assert {"logical", "optimized", "physical", "access_plan"} <= set(
            document
        )
        # Round trip: parse -> dump -> parse is stable.
        assert json.loads(json.dumps(document)) == document

"""The paper's experiment queries EQ1-EQ12, written in PGQL.

Unlike :class:`repro.core.queries.PgQueryBuilder`, which needs one
SPARQL formulation per encoding, a single PGQL text serves every
encoding — the compiler applies the Table 3 rules.  The differential
suite runs these against the SPARQL formulations and asserts identical
multiset results and, for most queries, identical physical plans.
"""

from __future__ import annotations

from typing import Dict


def pgql_experiment_queries(tag: str, start_node_id: int) -> Dict[str, str]:
    """PGQL formulations of the paper's EQ1-EQ12 (EQ11 at hops 1-5).

    ``tag`` parameterises the hasTag lookups; ``start_node_id`` is the
    numeric vertex id EQ11 starts from.
    """
    queries = {
        # EQ1: nodes with a given tag.
        "EQ1": f"MATCH (n {{hasTag: '{tag}'}}) RETURN n",
        # EQ2: followers of tagged nodes.
        "EQ2": f"MATCH (nf)-[:follows]->(n {{hasTag: '{tag}'}}) RETURN nf",
        # EQ3: 3-hop follows chain, every node carrying the tag.
        "EQ3": (
            f"MATCH (n {{hasTag: '{tag}'}})-[:follows]->"
            f"(n2 {{hasTag: '{tag}'}})-[:follows]->"
            f"(n3 {{hasTag: '{tag}'}})-[:follows]->"
            f"(n4 {{hasTag: '{tag}'}}) RETURN n4"
        ),
        # EQ4: all KVs of tagged nodes.
        "EQ4": f"MATCH (n {{hasTag: '{tag}'}}) RETURN n, properties(n)",
        # EQ5: targets of tagged edges (edge KV access, rule 2).
        "EQ5": f"MATCH ()-[e:follows {{hasTag: '{tag}'}}]->(n2) RETURN n2",
        # EQ6: EQ5 plus one more topology hop.
        "EQ6": (
            f"MATCH ()-[e:follows {{hasTag: '{tag}'}}]->(n2)-[:follows]->(n3) "
            "RETURN n3"
        ),
        # EQ7: three tagged-edge hops.
        "EQ7": (
            f"MATCH ()-[e1:follows {{hasTag: '{tag}'}}]->"
            f"(n2)-[e2:follows {{hasTag: '{tag}'}}]->"
            f"(n3)-[e3:follows {{hasTag: '{tag}'}}]->(n4) RETURN n4"
        ),
        # EQ8: all KVs of tagged edges.
        "EQ8": (
            f"MATCH ()-[e:follows {{hasTag: '{tag}'}}]->(n2) "
            "RETURN n2, properties(e)"
        ),
        # EQ9: in-degree histogram over knows|follows.
        "EQ9": (
            "MATCH (n1)-[:knows|follows]->(n2) "
            "WITH n2, COUNT(*) AS inDeg "
            "RETURN inDeg, COUNT(*) AS cnt ORDER BY inDeg DESC"
        ),
        # EQ10: out-degree histogram over knows|follows.
        "EQ10": (
            "MATCH (n1)-[:knows|follows]->(n2) "
            "WITH n1, COUNT(*) AS outDeg "
            "RETURN outDeg, COUNT(*) AS cnt ORDER BY outDeg DESC"
        ),
        # EQ12: directed triangle count.
        "EQ12": (
            "MATCH (x)-[:follows]->(y)-[:follows]->(z)-[:follows]->(x) "
            "RETURN COUNT(*) AS cnt"
        ),
    }
    # EQ11: path counting at increasing depth; a BGP chain of anonymous
    # nodes counts walks exactly like the SPARQL sequence path.
    for depth, suffix in enumerate("abcde", start=1):
        chain = "(n)" + "-[:follows]->()" * (depth - 1) + "-[:follows]->(y)"
        queries[f"EQ11{suffix}"] = (
            f"MATCH {chain} WHERE id(n) = {start_node_id} "
            "RETURN COUNT(y) AS cnt"
        )
    return queries

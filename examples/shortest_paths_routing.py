"""Selectors and cheapest paths on a road network (Section 7.1 extension).

The paper's research question: "What is the most scenic route to the
airport in at most 2 hours?" — an optimization objective under a path
constraint.  This example builds a small weighted road network and
answers it with the cheapest-path selectors plus bounded quantifiers.
"""

import _bootstrap  # noqa: F401

from repro import GraphBuilder, match


def build_roads():
    """A city road network: minutes to traverse, scenery score 0-10."""
    builder = GraphBuilder("roads")
    places = [
        ("home", "Place"), ("old_town", "Place"), ("river", "Place"),
        ("highway1", "Place"), ("highway2", "Place"), ("park", "Place"),
        ("airport", "Place"),
    ]
    for name, label in places:
        builder.node(name, label, name=name)
    roads = [
        ("r1", "home", "old_town", 20, 8),
        ("r2", "home", "highway1", 10, 1),
        ("r3", "old_town", "river", 25, 9),
        ("r4", "old_town", "park", 15, 7),
        ("r5", "highway1", "highway2", 30, 0),
        ("r6", "highway2", "airport", 25, 1),
        ("r7", "river", "park", 20, 10),
        ("r8", "park", "airport", 40, 6),
        ("r9", "river", "airport", 55, 9),
        ("r10", "highway1", "park", 20, 2),
    ]
    for rid, src, dst, minutes, scenery in roads:
        # scenery "cost" rewards scenic roads: 10 - score
        builder.directed(
            rid, src, dst, "Road",
            minutes=minutes, dullness=(10 - scenery), name=rid,
        )
    return builder.build()


def route_text(path, graph) -> str:
    stops = " -> ".join(graph.node(n)["name"] for n in path.node_ids)
    minutes = sum(graph.edge(e)["minutes"] for e in path.edge_ids)
    dullness = sum(graph.edge(e)["dullness"] for e in path.edge_ids)
    return f"{stops}  ({minutes} min, dullness {dullness})"


def main() -> None:
    graph = build_roads()
    print(f"road network: {graph}")

    print("\nfastest route home -> airport (ANY CHEAPEST COST minutes):")
    result = match(
        graph,
        "MATCH ANY CHEAPEST COST minutes p = "
        "(a WHERE a.name='home')-[r:Road]->*(b WHERE b.name='airport')",
    )
    for path in result.paths():
        if path.source_id == "home" and path.target_id == "airport":
            print("   ", route_text(path, graph))

    print("\nthree most scenic routes (TOP 3 CHEAPEST COST dullness):")
    result = match(
        graph,
        "MATCH TOP 3 CHEAPEST COST dullness p = "
        "(a WHERE a.name='home')-[r:Road]->*(b WHERE b.name='airport')",
    )
    for path in sorted(result.paths(), key=lambda p: p.cost("dullness")):
        if path.source_id == "home" and path.target_id == "airport":
            print("   ", route_text(path, graph))

    print("\nmost scenic route within 2 hours (prefilter on total minutes):")
    result = match(
        graph,
        "MATCH TOP 5 CHEAPEST COST dullness p = "
        "(a WHERE a.name='home')-[r:Road]->*(b WHERE b.name='airport') "
        "WHERE SUM(r.minutes) <= 120",
    )
    candidates = [
        p for p in result.paths()
        if p.source_id == "home" and p.target_id == "airport"
    ]
    if candidates:
        best = min(candidates, key=lambda p: p.cost("dullness"))
        print("   ", route_text(best, graph))

    print("\nall shortest (fewest roads) for comparison:")
    result = match(
        graph,
        "MATCH ALL SHORTEST p = (a WHERE a.name='home')-[r:Road]->+"
        "(b WHERE b.name='airport')",
    )
    for path in result.paths():
        if path.source_id == "home" and path.target_id == "airport":
            print("   ", route_text(path, graph))


if __name__ == "__main__":
    main()

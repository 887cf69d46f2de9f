"""Walk through temporal weights, activity paths, and path similarity.

Structure screening ignores dates, so two people who visited the same
places at different times look identical to it. The path similarity
stage tells them apart: every edge gets the weight

    (now + 1 - start) * (end + 1 - start)

and two people are compared through the weighted paths that run from
one to the other via each shared venue.

Run: python demos/path_similarity_walkthrough.py
"""

from tapmerge import (
    NetworkBundle,
    VertexKind,
    edge_weight,
    enumerate_paths,
    simtap,
    simtap_beta,
    structure_error,
)

NOW = 2020

bundle = NetworkBundle()
ida = bundle.add_vertex(VertexKind.CHARACTER, "person", "Ida Lindqvist")
twin = bundle.add_vertex(VertexKind.CHARACTER, "person", "I. Lindqvist")
forge = bundle.add_vertex(VertexKind.ENTITY, "institution", "Forge Works")
guild = bundle.add_vertex(VertexKind.ENTITY, "institution", "Artisan Guild")

# same employers, same number of stints, but the years are shifted
bundle.add_edge(ida, forge, "work", (2005, 2008))
bundle.add_edge(ida, forge, "work", (2012, 2014))
bundle.add_edge(ida, guild, "work", (2009, 2011))
bundle.add_edge(twin, forge, "work", (2006, 2009))
bundle.add_edge(twin, forge, "work", (2013, 2014))
bundle.add_edge(twin, guild, "work", (2009, 2011))
bundle.seal()

tan = bundle.subnetwork("work")

print(f"structure error: {structure_error(bundle, ida, twin).value:.3f}  (same venues, same counts)")

print("\nedge weights (recency x duration):")
for edge in tan.edges():
    w = edge_weight(edge, NOW)
    who = bundle.vertex(edge.character).display_name
    where = bundle.vertex(edge.entity).display_name
    print(f"  {who:14s} @ {where:13s} {edge.interval.start}-{edge.interval.end}  -> {w}")

paths = enumerate_paths(tan, ida, twin, NOW)
print(f"\n{len(paths)} activity paths from one to the other:")
for p in paths:
    print(f"  via {bundle.vertex(p.entity).display_name:13s} ({p.relation_a}, {p.relation_b})  weight {p.weight}")

value = simtap_beta(tan, ida, twin, NOW)
print(f"\nwork-subnetwork similarity: {value:.4f}  (< 1: the timelines differ)")
print(f"bundle-level similarity:    {simtap(bundle, ida, twin, NOW).aggregate:.4f}")
print(f"self similarity:            {simtap_beta(tan, ida, ida, NOW):.4f}")

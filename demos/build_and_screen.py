"""Build a small activity network by hand and screen it for duplicates.

Two of the four people below have byte-different names but identical
relation structure; structure error flags exactly that pair.

Run: python demos/build_and_screen.py
"""

from tapmerge import NetworkBundle, VertexKind, project_one_mode, screen_candidates, structure_error

bundle = NetworkBundle()

anna = bundle.add_vertex(VertexKind.CHARACTER, "person", "Anna Herrera")
a_herrera = bundle.add_vertex(VertexKind.CHARACTER, "person", "A. Herrera")  # the same person, re-extracted
badri = bundle.add_vertex(VertexKind.CHARACTER, "person", "Badri Rao")
chen = bundle.add_vertex(VertexKind.CHARACTER, "person", "Chen Wei")

lab = bundle.add_vertex(VertexKind.ENTITY, "institution", "Coastal Dynamics Lab")
uni = bundle.add_vertex(VertexKind.ENTITY, "institution", "Port City University")
paper = bundle.add_vertex(VertexKind.ENTITY, "publication", "Tidal Flow Estimation at Scale")

# Anna and "A. Herrera" have the same history; Badri shares only the paper
for person in (anna, a_herrera):
    bundle.add_edge(person, uni, "study", (2003, 2007))
    bundle.add_edge(person, lab, "work", (2008, 2015))
    bundle.add_edge(person, paper, "coauthor", (2012, 2012))
bundle.add_edge(badri, paper, "coauthor", (2012, 2012))
bundle.add_edge(chen, uni, "work", (2010, 2013))

bundle.seal()

print("pairwise structure error (0 means identical relation structure):")
ids = bundle.character_ids()
for i, x in enumerate(ids):
    for y in ids[i + 1 :]:
        err = structure_error(bundle, x, y)
        print(
            f"  {bundle.vertex(x).display_name:13s} vs {bundle.vertex(y).display_name:13s}"
            f" -> {err.value:.3f}"
        )

candidates = screen_candidates(bundle)
print("\nscreened candidates (the set of pairs worth a closer look):")
for x, y in candidates.pair_ids():
    print(f"  {bundle.vertex(x).display_name}  ~  {bundle.vertex(y).display_name}")

# the person-to-person projection, one tie per shared activity pair
one_mode = project_one_mode(bundle)
print("\nperson-to-person ties (via shared entities, with multiplicity):")
seen = set()
for rel in one_mode.relations:
    if (rel.a, rel.b) in seen:
        continue
    seen.add((rel.a, rel.b))
    print(
        f"  {bundle.vertex(rel.a).display_name}  --  {bundle.vertex(rel.b).display_name}"
        f"  x{one_mode.multiplicity(rel.a, rel.b)}"
    )

#!/usr/bin/env python3
# Build the shuffle lattice and the bubble cover relation on the same
# words, look at their structure, and export Hasse diagrams as DOT.

from shuflat import (
    build_shuffle_lattice,
    bubble_covers,
    degree_statistics,
    enumerate_shuffle_words,
    format_word,
    rank,
)
from shuflat.cli import run

m, n = 1, 2

print(f"Shuffle words for (m, n) = ({m}, {n}), canonical order:")
for u in enumerate_shuffle_words(m, n):
    print(f"  {format_word(u):8s} rank {rank(u, m)}")

# The shuffle lattice: going up deletes an x-letter or inserts a y-letter.
lat = build_shuffle_lattice(m, n)
print(f"\nShuf({m},{n}) has {lat.n} elements and {len(lat.covers)} covers")
print("bottom:", format_word(lat.labels[lat.bottom]), "| top:", format_word(lat.labels[lat.top]))

# Rank level sizes are symmetric.
levels = {}
for r in lat.ranks:
    levels[r] = levels.get(r, 0) + 1
print("rank level sizes:", [levels[r] for r in sorted(levels)])

# The bubble covers refine the picture: right indels plus forward
# transpositions (an adjacent x_i y_j pair swapping to y_j x_i).
covers = bubble_covers(m, n)
print(f"\nBub({m},{n}) has {len(covers)} covers:")
for c in covers:
    print(f"  {format_word(c.lower):8s} -> {format_word(c.upper):8s} [{c.kind}]")

# Each word's bubble in-degree splits into indel and transposition parts;
# the total in-degree always equals the shuffle rank.
print("\nword      in  in_indel  in_transpose")
for u, triple in degree_statistics(m, n).items():
    print(f"{format_word(u):8s} {triple.in_total:3d} {triple.in_indel:8d} {triple.in_transpose:12d}")

# DOT output renders with graphviz: dot -Tpng hasse.dot -o hasse.png
# The same export as `shuflat hasse m n --order shuf|bub --format dot`.
print("\nDOT export of the shuffle Hasse diagram:")
run(["hasse", str(m), str(n), "--order", "shuf", "--format", "dot"])
print("\nDOT export of the bubble covers (edges annotated by kind):")
run(["hasse", str(m), str(n), "--order", "bub", "--format", "dot"])

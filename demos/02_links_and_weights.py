"""Link graphs and weight tests: why fig1 needs the relative machinery.

    python demos/02_links_and_weights.py
"""

from pathlib import Path

from lotva import (build_complex, build_link, build_relative_link,
                   canonical_weights, derive_subcomplexes,
                   min_weight_reduced_cycle, orientation_search, parse_lot,
                   relative_weight_test, reorient, signed_relative_forest_check,
                   to_dot, weight_test)

FIXTURES = Path(__file__).parent.parent / "fixtures"


def sublink(g, cls):
    """The corners of lk+ ("++") or lk- ("--") as pairs of end names."""
    return [(str(c.a), str(c.b)) for c in g.corners if c.corner_class == cls]


fig1 = parse_lot((FIXTURES / "fig1.lot").read_text())
cx = build_complex(fig1)

print("cells of K(fig1):")
for c in cx.cells:
    word = " ".join(x if s > 0 else f"{x}^-1" for x, s in c.boundary.letters)
    print(f"  {c.name}: {word}")

g = build_link(cx)
print(f"\nlink graph: {len(g.nodes)} edge-ends, {len(g.corners)} corners")
print("positive link:", sublink(g, "++"))
print("negative link:", sublink(g, "--"))
print("note the parallel pairs in the negative link: they are weight-0")
print("reduced cycles under the canonical 0/1 weights.")

w = canonical_weights(g)
weight, darts = min_weight_reduced_cycle(g, w)
print(f"\nminimum reduced-cycle weight: {weight} "
      f"(corners {[cid for cid, _ in darts]})")
print("absolute weight test:", "PASS" if weight_test(cx, g, w).ok else "FAIL")

print("\nno reorientation fixes this:", orientation_search(fig1))

print("\n-- relative to K(Gamma_1), Gamma_1 = edges 1..4 --")
fam = derive_subcomplexes(fig1, [frozenset({1, 2, 3, 4})])
for pol, name in ((1, "positive"), (-1, "negative")):
    ok, _ = signed_relative_forest_check(cx, fam, pol)
    print(f"{name} link is a forest relative to lk(K(Gamma_1)): {ok}")

rg = build_relative_link(cx, fam)
n_delta = sum(1 for c in rg.corners if c.is_delta)
print(f"relative link: {n_delta} Delta corners + "
      f"{len(rg.corners) - n_delta} corners of the outside cells")
verdict = relative_weight_test(cx, fam, canonical_weights(rg), link=rg)
print("relative weight test:", "PASS" if verdict.ok else "FAIL")

print("\n-- reorientation search on the prime core b-c:e, c-d:b, d-e:c --")
core = parse_lot("lot core\nedge b c e\nedge c d b\nedge d e c\n")
flip = orientation_search(core)
print(f"flip set: {sorted(flip)}  (edge 0 = b-c)")
flipped = reorient(core, flip)
fg = build_link(build_complex(flipped))
print("after flipping, lk+ =", sublink(fg, "++"))
print("               lk- =", sublink(fg, "--"))

print("\nDOT export of the fig1 link (first lines):")
print("\n".join(to_dot(g).splitlines()[:6]))
print("  ...")

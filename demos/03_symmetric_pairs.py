"""The matrix catalog: realizations, root decompositions, split Borels.

Each pair comes with two pinned tori: the maximally split one Z(a) (for
the little Weyl group and the torsor of theta-split Borels) and a
fundamental theta-stable one (for compactness combinatorics).  The
canonical involution on the universal Cartan is recomputed from every
theta-split Borel and comes out identical each time.
"""

from collections import Counter

from thetapairs.involutions import (canonical_involution, compute_subgroups,
                                    enumerate_split_borels)
from thetapairs.pairs import MATRIX_CATALOG, realize

for spec in MATRIX_CATALOG:
    pair = realize(spec)
    fund = pair.fund_roots
    kinds = Counter(fund.classify(k) for k in range(fund.nroots))
    comp = Counter(fund.compactness.values())
    rep = compute_subgroups(pair)
    borels = enumerate_split_borels(pair)
    theta_can = canonical_involution(pair).matrix
    print(f"{spec:12s} dim g = {pair.dim_g:2d}  r1 = {pair.rank_r1}  "
          f"roots: {dict(kinds)}  compact split: {dict(comp) or '-'}")
    print(f"{'':12s} |W_a| = {rep.Wa_order:2d}  theta-split Borels = {len(borels):2d}"
          f"  theta_can well-defined on a rank-{theta_can.rows} universal Cartan")

# the sl(2)/so(2) picture in full: both roots of the compact torus are
# noncompact imaginary, and both Borel classes are regular
p = realize("splitA:n=1")
fund = p.fund_roots
print("\nsl2/so2 root vectors (symmetric nilpotents):")
for k in range(fund.nroots):
    print("  ", p.from_coords(fund.root_vectors[k]))

"""Deciding the three partial orders, including the four-output counterexamples.

Run from the repository root:

    python demos/partial_orders.py
"""

import numpy as np

import bisochan as bc

DATA = "demos/data"

print("=== Degradability is decided exactly from guessing probabilities ===")
base = bc.canonicalize_biso(bc.load_channel(f"{DATA}/alpha_pair_f.txt"))
target = bc.make_bsc(bc.doeblin_alpha(base.to_channel()) / 2)
verdict = bc.is_degraded(base.to_channel(), target)
print(f"channel degrades onto its Doeblin-matched BSC: {verdict.relation}")
print("witness map (rows = channel outputs):")
print(verdict.witness.entries)

print("\n=== Equal Doeblin coefficient does not mean comparable ===")
f = bc.load_channel(f"{DATA}/alpha_pair_f.txt")
g = bc.load_channel(f"{DATA}/alpha_pair_g.txt")
print(f"alpha(F) = {bc.doeblin_alpha(f)}   alpha(G) = {bc.doeblin_alpha(g)}")
for name, a, b in (("F onto G", f, g), ("G onto F", g, f)):
    v = bc.is_degraded(a, b)
    print(
        f"{name}: {v.relation}  (guessing probability crosses at bias {v.witness.guessing_x:.3f},"
        f" gap {v.witness.guessing_gap:.5f})"
    )
# The guessing probability is the refutation tool: degradation can never
# improve it, so a crossing kills both directions at once.
for x in (0.12, 0.29):
    pf = bc.guessing_probability(f, x)
    pg = bc.guessing_probability(g, x)
    print(f"  bias {x}: guess via F = {pf:.5f}   via G = {pg:.5f}")

print("\n=== Less noisy: the curvature criterion ===")
w = bc.canonicalize_biso(bc.load_channel(f"{DATA}/eta_pair_a.txt"))
v = bc.canonicalize_biso(bc.load_channel(f"{DATA}/eta_pair_b.txt"))
print(f"eta(W) = {bc.eta_kl_biso(w):.6f}   eta(V) = {bc.eta_kl_biso(v):.6f}")
for q in (0.001, 0.02, 0.5):
    print(f"criterion(W, V) at q={q}: {bc.less_noisy_criterion(w, v, q):+.4f}")
print("sign changes, so neither channel is less noisy than the other:")
print(f"  W >= V: {bc.is_less_noisy(w, v).relation}")
print(f"  V >= W: {bc.is_less_noisy(v, w).relation}")

print("\n=== More capable is certified by DC branch and bound ===")
print(f"BSC(0.1) vs BSC(0.4): {bc.is_more_capable(bc.make_bsc(0.1), bc.make_bsc(0.4)).relation}")
mc = bc.is_more_capable(bc.make_bsc(0.4), bc.make_bsc(0.1))
print(f"BSC(0.4) vs BSC(0.1): {mc.relation} at bias {mc.witness.parameter:.3f}")

print("\n=== The order hierarchy on a constructed degradation ===")
rng = np.random.default_rng(1)
from bisochan.checks import random_biso, random_degraded_biso

p = random_biso(rng, max_pairs=3)
q = random_degraded_biso(rng, p)
print(f"degradable:   {bc.is_degraded(p.to_channel(), q.to_channel()).relation}")
print(f"less noisy:   {bc.is_less_noisy(p, q).relation}")
print(f"more capable: {bc.is_more_capable(p.to_channel(), q.to_channel()).relation}")

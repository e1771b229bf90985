"""Terms over a signature: trees, leaves, skeletons, and the term order.

Run with:  python3 demos/01_terms_and_order.py
"""

from oalg import SIG1, leaves, parse_term, print_term, regularize, skeleton, var_seq
from oalg.oracles import characterized_up_set, generated_up_set
from oalg.termorder import VarPoset, term_leq

VARS = ["x1", "x2", "x4"]

# A five-leaf term: a ternary node and a binary node under a binary root.
t = parse_term(SIG1, VARS, "f g x2 x1 c f x1 x4")
print("term          ", print_term(t))
print("functional    ", print_term(t, "functional"))
print("leaves        ", list(leaves(t)))
print("variables     ", var_seq(t, SIG1))

# Same shape, different leaves: equal skeletons.
s = parse_term(SIG1, VARS, "f g x2 x1 x1 f x4 c")
r = parse_term(SIG1, VARS, "g c f x2 x1 f x1 x4")
print("skelt(t) == skelt(s):", skeleton(t) == skeleton(s))
print("skelt(t) == skelt(r):", skeleton(t) == skeleton(r))

# Every term splits into a constant-free template over z1..zn plus the
# sequence of labels that fill it.
template, fills = regularize(t)
print("template      ", print_term(template))
print("fills         ", tuple(fills))

# The term order: equal skeletons, leaves compared within their posets.
xp = VarPoset(("x1", "x2"), frozenset({("x1", "x2")}))
lo = parse_term(SIG1, ["x1", "x2"], "f c x1")
hi = parse_term(SIG1, ["x1", "x2"], "f d x2")
print(f"{print_term(lo)}  <=  {print_term(hi)}:", term_leq(SIG1, xp, lo, hi))

# The generated-order oracle agrees with the leafwise characterization.
up = generated_up_set(SIG1, xp, lo)
print("up-set size   ", len(up), "(oracle)",
      len(characterized_up_set(SIG1, xp, lo)), "(leafwise)")
for u in sorted(up, key=print_term):
    print("   ", print_term(u))

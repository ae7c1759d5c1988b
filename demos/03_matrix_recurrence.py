"""The exact matrix form of the table recurrence.

For an odd shift k, the vector (C_m(k), C_m(2^m - k), C_{m-1}(k')) evolves
by one of four integer matrices chosen by the dyadic quarter containing k.
Chaining down to order 3 writes every such vector as an exact product, and
the product regroups into SWAP^delta times a word in the two letters
MA / MB.

    python demos/03_matrix_recurrence.py
"""

import numpy as np

from rscorr import (
    nearest_third,
    normal_form,
    shift_chain,
    t_factor,
    v_direct,
    v_product,
)

# The four quarter factors.
for label in ("S1", "S2", "S3", "S4"):
    print(f"{label}: {t_factor(label).tolist()}")

# Follow a shift down the orders.
m, k = 6, 43
chain = shift_chain(k, m)
print(f"\nchain for shift {k} at order {m}:")
for step in chain.steps:
    print(f"  level {step.level}: shift {step.shift} in quarter {step.label}")

# The chained product reproduces the table vector exactly.
print("\nv from tables: ", v_direct(m, k))
print("v from product:", v_product(m, k))
assert np.array_equal(v_direct(m, k), v_product(m, k))

# Regrouped two-letter normal form; the word always has m - 2 letters.
nf = normal_form(m, k)
print(f"\nnormal form: delta={nf.delta}, word={list(nf.letters)}")
assert np.array_equal(nf.reconstruct(), v_direct(m, k))
print("reconstruction matches; JSON form:", nf.to_dict())

# The shift nearest 2/3 of the doubled length stays in the third quarter
# at every level, so its word is a pure MA power; that drives the lower
# growth bound for the maximal autocorrelation.  In digits: its binary
# digits alternate (1010...1), and a letter is MA exactly where two
# neighbouring digits differ.
for m in (5, 8, 12):
    ell = nearest_third(m)
    labels = set(shift_chain(ell, m).labels())
    word = normal_form(m, ell).letters
    print(f"order {m}: nearest-third shift {ell}, quarters {labels}, word {set(word)}")

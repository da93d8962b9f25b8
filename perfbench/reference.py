"""Fixed reference computation of the cycleval benchmark.

    python3 perfbench/reference.py

Starts an interpreter, imports numpy and does fixed small-fraction and
array arithmetic, the kinds of work set-up and the suites do, with no
cycleval code.  Its duration from spawn to exit tracks the speed the host
gives a fresh process at that moment.
"""

from fractions import Fraction

import numpy as np

acc = 0
for i in range(1, 12000):
    a = Fraction(i % 13 + 1, i % 7 + 2)
    b = Fraction(i % 5 + 1, i % 11 + 3)
    acc += (a * b - a / b).numerator
X = np.linspace(-1.0, 1.0, 3 * 20000).reshape(20000, 3)
for _ in range(8):
    H = np.einsum("ni,nj->nij", X, X) + np.eye(3)
    acc += float(np.exp(-(X * X).sum(axis=1)) @ np.linalg.det(H))

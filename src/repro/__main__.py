"""``python -m repro`` — a one-screen demonstration.

Compiles the paper's motivating kernel (Figure 1), prints the emitted
code, and shows the work counts of looplets vs. the
iterator-over-nonzeros model.
"""

import numpy as np

import repro.lang as fl
from repro.baselines import twofinger


def main():
    a = np.array([0, 1.9, 0, 3.0, 0, 0, 2.7, 0, 5.5, 0, 0])
    b = np.array([0, 0, 0, 3.7, 4.7, 9.2, 1.5, 8.7, 0, 0, 0])
    A = fl.from_numpy(a, ("sparse",), name="A")
    B = fl.from_numpy(b, ("band",), name="B")
    C = fl.Scalar(name="C")
    i = fl.indices("i")
    kernel = fl.compile_kernel(
        fl.forall(i, fl.increment(C[()], A[i] * B[i])), instrument=True)
    print("Emitted kernel for  C[] += A[i] * B[i]  (list x band):\n")
    print(kernel.source)
    work = kernel.run()
    a_idx, a_val = twofinger.coords_of(a)
    b_idx, b_val = twofinger.coords_of(b)
    _, merge_steps = twofinger.dot_merge(a_idx, a_val, b_idx, b_val)
    print("result: %.2f | looplet work: %d ops | two-finger merge: %d "
          "steps" % (C.value, work, merge_steps))
    print("\nSee examples/ for more walkthroughs, "
          "`python -m pytest tests/paper -q -s`\nfor the paper's figures "
          "as op-count tables, and docs/benchmarks.md for\nthe "
          "wall-clock benchmark.")


if __name__ == "__main__":
    main()

"""The eval_kernels micro programs.

name -> (program text, x values evaluated one by one with a fresh
1,000,000-unit budget as verify calls evaluate, number of terms generated
with a carried 100,000-unit budget per term as covers and acyclic_on do).
Small values and bignums take different charging paths, and the last
kernel ends in a timeout in both styles.
"""

KERNELS = {
    "loop_add": ("loop(x + y, x, 0)", range(160), 160),
    "loop_nested": ("loop(loop(x + 1, y, x), x, 0)", range(50), 50),
    "loop2_fib": ("loop2(x + y, x, x, 0, 1)", range(160), 160),
    "compr": ("compr(x mod (2 + 1), x)", range(100), 100),
    "bignum_mul": ("loop(x * y, x, 1)", range(100), 80),
    "timeout": ("loop(2 * (x * y), x, 1)", range(82), 70),
}
STYLES = ("single", "carried")

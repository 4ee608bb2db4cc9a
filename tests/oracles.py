"""Independent brute-force reference implementations.

Deliberately written with plain-int arithmetic and no imports from the
package, so expected values frozen into tests come from a second route.
"""


def oracle_step(n: int, basis: str) -> int:
    if n % 2:
        return 3 * n + 1 if basis == "cr" else (3 * n + 1) // 2
    return n // 2


def oracle_stopping(n: int, basis: str) -> int:
    k = 0
    while n != 1:
        n = oracle_step(n, basis)
        k += 1
    return k


def oracle_composite(n: int, map_name: str) -> int:
    basis, reps = ("cr", 3) if map_name == "cr3" else ("pdcr", 2)
    for _ in range(reps):
        n = oracle_step(n, basis)
    return n


def oracle_label(n: int, map_name: str) -> int:
    cur = n
    while True:
        nxt = oracle_composite(cur, map_name)
        if nxt == cur:
            return cur
        cur = nxt


def oracle_census(s: int, map_name: str) -> dict[int, int]:
    out: dict[int, int] = {}
    for n in range(1, s + 1):
        label = oracle_label(n, map_name)
        out[label] = out.get(label, 0) + 1
    return out


def oracle_sigma(n: int, basis: str) -> int:
    """Stopping time σ(n): steps until the value first drops below n; σ(1) = 0."""
    if n == 1:
        return 0
    x, k = n, 0
    while x >= n:
        x = oracle_step(x, basis)
        k += 1
    return k

"""Shared independent oracles for the test suite.

These deliberately avoid the library's determinant and subset machinery:
plain Python arithmetic, permutation expansion, and explicit subset
loops, so they can catch systematic bugs in the fast paths.
"""

import itertools
import math

from detsum.rings import IntPolyRing


def ref_det(rows):
    """Permutation-expansion determinant over plain ints or Fractions."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        term = 1
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total - term if inversions & 1 else total + term
    return total


def ref_subset_sum(rows_list, indices):
    """Entrywise sum of the selected plain-number matrices."""
    n = len(rows_list[0])
    acc = [[0] * n for _ in range(n)]
    for idx in indices:
        for i in range(n):
            for j in range(n):
                acc[i][j] += rows_list[idx][i][j]
    return acc


def ref_alternating_det_sum(rows_list):
    """Signed subset-sum determinant total over plain numbers."""
    m = len(rows_list)
    total = 0
    for bits in range(1, 1 << m):
        indices = [i for i in range(m) if bits >> i & 1]
        d = ref_det(ref_subset_sum(rows_list, indices))
        total = total - d if len(indices) & 1 else total + d
    return total


def ref_product_sum(m, n):
    """sum_S (-1)^|S| prod_j (sum_{i in S} z_ij), expanded subset by subset.

    z_ij is variable i*n + j of IntPolyRing(m*n); returns the raw polynomial.
    """
    ring = IntPolyRing(m * n)
    total = ring.zero
    for bits in range(1 << m):
        members = [i for i in range(m) if bits >> i & 1]
        product = ring.one
        for j in range(n):
            column = ring.zero
            for i in members:
                column = ring.add(column, ring.variable(i * n + j))
            product = ring.mul(product, column)
        total = ring.sub(total, product) if len(members) & 1 else ring.add(total, product)
    return total


def int_rows(matrix):
    """Raw integer rows of a library matrix over Z, Z/N, or F_p."""
    return [list(row) for row in matrix.rows]


def ref_minor_floor(rows_list, modulus=0):
    """The generator of I_n(H) ∩ I_n(V) over Z (``modulus`` 0) or Z/N,
    as a residue: the lcm of the gcds of ``ref_det`` over every choice of
    n columns of H = [A_1 | ... | A_m] and of n rows of V = [A_1; ...;
    A_m], each taken with N.
    """
    n = len(rows_list[0])
    stacks = (
        [[row[j] for row in rows] for rows in rows_list for j in range(n)],
        [list(row) for rows in rows_list for row in rows],
    )
    gens = []
    for lines in stacks:
        g = 0
        for pick in itertools.combinations(lines, n):
            g = math.gcd(g, ref_det([list(r) for r in pick]))
        gens.append(math.gcd(g, modulus))
    floor = math.lcm(*gens)
    return floor % modulus if modulus else floor


def ref_first_unit_subsum(primes, elements, bound):
    """First mask (by size, then value) of at most bound elements of
    F_p1 x ... x F_pk whose tuple sum is a unit, or None.

    Tries the masks in that order, summing each coordinate by coordinate;
    a unit has no zero coordinate.
    """
    m = len(elements)
    for bits in sorted(range(1, 1 << m), key=lambda b: (bin(b).count("1"), b)):
        members = [elements[i] for i in range(m) if bits >> i & 1]
        if len(members) > bound:
            return None
        if all(sum(e[c] for e in members) % p for c, p in enumerate(primes)):
            return bits
    return None


def ref_mixed_char_families(primes, m):
    """Map each bound b in 1..m to the miner's families over the given fields.

    A family is an m-element multiset of F_p1 x ... x F_pk, taken over all
    elements in lexicographic order, whose total is a unit while no subset
    of at most b members sums to one.  Each is a tuple of element tuples.
    """
    elements = list(itertools.product(*(range(p) for p in primes)))
    found = {b: [] for b in range(1, m + 1)}
    for family in itertools.combinations_with_replacement(elements, m):
        if all(sum(e[c] for e in family) % p for c, p in enumerate(primes)):
            smallest = bin(ref_first_unit_subsum(primes, family, m)).count("1")
            for b in range(1, smallest):
                found[b].append(family)
    return found

"""Partition bookkeeping and combinatorial number supply.

Input partitions never contain 1's; the reduction drops 1 from every part
and its weight is the codimension of the corresponding stratum.  Two-row
Kostka numbers are read off the Schur expansion of h_nu, built by the Pieri
rule; Stirling numbers of the first kind come from the elementary symmetric
polynomial sigma_k(1, ..., m-1).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple


class InputPartition(NamedTuple("InputPartition", [("parts", tuple)])):
    """A partition without 1's, stored as a weakly decreasing tuple of parts >= 2."""

    __slots__ = ()

    def __new__(cls, parts):
        parts = tuple(sorted((int(p) for p in parts), reverse=True))
        for p in parts:
            if p < 2:
                raise ValueError(f"parts must be >= 2, got {p}")
        return super().__new__(cls, parts)

    @property
    def weight(self):
        return sum(self.parts)

    @property
    def reduction(self):
        return tuple(p - 1 for p in self.parts)

    @property
    def codim(self):
        return self.weight - len(self.parts)

    @property
    def largest(self):
        return self.parts[0] if self.parts else 0

    @property
    def multiplicities(self):
        return Counter(self.parts)

    def is_empty(self):
        return not self.parts

    def remove(self, m):
        """The partition with one copy of part m removed."""
        if m not in self.parts:
            raise ValueError(f"{m} is not a part of {self}")
        parts = list(self.parts)
        parts.remove(m)
        return InputPartition(tuple(parts))

    def canonical_string(self):
        return ",".join(str(p) for p in self.parts)

    @classmethod
    def parse(cls, text):
        text = text.strip()
        if not text:
            return cls(())
        return cls(tuple(int(tok) for tok in text.split(",")))

    def __str__(self):
        return f"({self.canonical_string()})"


def enumerate_partitions_no_ones(max_weight):
    """All nonempty partitions without 1's of weight <= max_weight.

    Deterministic order: weight ascending, then largest parts first.
    """

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for p in range(min(cap, remaining), 1, -1):
            if remaining - p == 1:  # would force a trailing 1
                continue
            for rest in gen(remaining - p, p):
                yield (p,) + rest

    out = []
    for w in range(2, max_weight + 1):
        out.extend(InputPartition(parts) for parts in gen(w, w))
    return out


def kostka_two_row(shape, content):
    """The two-row Kostka number K_((r1, r2), content): entry r2 of
    complete_homogeneous_coefficients(content), and 0 unless r1 >= r2 >= 0."""
    r1, r2 = shape
    content = tuple(int(c) for c in content)
    if any(c <= 0 for c in content):
        raise ValueError("content entries must be positive")
    if sum(content) != r1 + r2:
        raise ValueError(f"content weight {sum(content)} != shape weight {r1 + r2}")
    return complete_homogeneous_coefficients(content)[r2] if r1 >= r2 >= 0 else 0


def stirling_first(m, k):
    """Unsigned Stirling number of the first kind, sigma_k(1, 2, ..., m-1)."""
    if m < 1 or k < 0 or k > m - 1:
        raise ValueError(f"stirling_first requires m >= 1 and 0 <= k <= m-1, got ({m}, {k})")
    sigma = [1] + [0] * k
    for i in range(1, m):
        for j in range(min(k, i), 0, -1):
            sigma[j] += i * sigma[j - 1]
    return sigma[k]


def complete_homogeneous_coefficients(nu):
    """The Schur expansion of h_nu = prod h_{nu_i} in {a, b}, h_i = s_(i,0),
    as a list of ints: entry r2 is the coefficient of s_(w-r2, r2), w = |nu|,
    which is the two-row Kostka number K_((w-r2, r2), nu).

    Built by the Pieri rule: multiplying by h_k adds the coefficient of
    s_(w-r2, r2) to every s_(w+k-v, v) with r2 <= v <= min(r2+k, w-r2).
    """
    weight, coeffs = 0, [1]
    for part in nu:
        k = int(part)
        if k < 0:
            raise ValueError("parts must be nonnegative")
        product = [0] * ((weight + k) // 2 + 1)
        for r2, c in enumerate(coeffs):
            for v in range(r2, min(r2 + k, weight - r2) + 1):
                product[v] += c
        weight, coeffs = weight + k, product
    return coeffs


def factorial_of_multiplicities(partition):
    """prod e_i! over the part multiplicities of an InputPartition."""
    out = 1
    for e in partition.multiplicities.values():
        out *= math.factorial(e)
    return out

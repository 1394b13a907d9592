"""Index codecs: the zigzag enumeration of the integers and the Cantor
pairing function.

Positions are 0-based here; callers that present 1-based positions shift
at the boundary.
"""

import math


def zigzag_value(pos):
    """Value at 0-based position ``pos`` of the enumeration 0, 1, -1, 2, -2, ..."""
    if pos < 0:
        raise ValueError("position must be >= 0")
    return (pos + 1) // 2 if pos % 2 else -(pos // 2)


def zigzag_position(value):
    """Inverse of zigzag_value: n -> 2n-1 for n > 0, n -> -2n for n <= 0."""
    return 2 * value - 1 if value > 0 else -2 * value


def cantor_pair(a, b):
    """Bijection N x N -> N (0-based)."""
    if a < 0 or b < 0:
        raise ValueError("pair components must be >= 0")
    s = a + b
    return s * (s + 1) // 2 + b


def cantor_unpair(n):
    if n < 0:
        raise ValueError("index must be >= 0")
    # largest s with s(s+1)/2 <= n, in exact integer arithmetic
    s = (math.isqrt(8 * n + 1) - 1) // 2
    b = n - s * (s + 1) // 2
    return s - b, b

"""Gauss-Jordan elimination over Q(q) by QRat arithmetic, for the tests.

``qfield.row_reduce`` eliminates fraction-free on packed integers; this is
the plain field elimination it replaced, kept as the reference it must
agree with: the same pivot choice, the same reduced row echelon form and
the same rank, reached by a route that shares none of its integer code.
"""

from __future__ import annotations

from supercrystal.qfield import QRat


def qrat_row_reduce(rows: list[list[QRat]]) -> int:
    """Gauss-Jordan elimination in place; returns the rank.

    Each pivot is the first nonzero entry at or below the current row,
    scaled to one and cleared from every other row, so the nonzero rows
    end in reduced row echelon form.
    """
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank

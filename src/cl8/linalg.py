"""Exact linear algebra over GF(2) for blade masks, and over Q or Q(i).

Blade masks mod sign form GF(2)^n under XOR, and one echelon,
`gf2_echelon`, serves them. `SpanBasis` eliminates sparse dicts mapping a
key to a Fraction or GaussianRational coefficient, with no floating point.
It keys its rows by pivot, so a reduction costs only the pivots it meets.
"""

from __future__ import annotations

__all__ = ["SpanBasis", "gf2_echelon", "gf2_reduce"]


def _clean(vec) -> dict:
    return {k: c for k, c in vec.items() if c}


class SpanBasis:
    """Row-echelon span tracker; add() reports whether the vector was new.

    Nothing in the package calls it. It stays here only because the
    benchmark harness, `perfbench/spans.py`, wraps `SpanBasis.add`; the
    tests' rank oracles in `tests/naive.py` are built on it."""

    def __init__(self):
        self._rows = {}  # pivot key -> normalized row dict, every key >= pivot

    def reduce(self, vec) -> dict:
        """vec minus its component along the rows: no key of it is a pivot.

        The pivots it meets are cleared in increasing order. A row adds
        only keys above its own pivot, so each row is used at most once,
        with the same factor as in any other order (the rows are
        independent, so the reduced vector and its factors are unique)."""
        v = _clean(vec)
        rows = self._rows
        todo = [k for k in v if k in rows]
        if not todo:
            return v
        import heapq  # here, so that importing cl8 loads no new module

        heapq.heapify(todo)
        while todo:
            pivot = heapq.heappop(todo)
            factor = v.get(pivot)
            if factor is None:  # cleared since it was queued
                continue
            for k, c in rows[pivot].items():
                cur = v.get(k)
                if cur is None:
                    v[k] = -(factor * c)
                    if k in rows:
                        heapq.heappush(todo, k)
                    continue
                nv = cur - factor * c
                if nv:
                    v[k] = nv
                else:
                    del v[k]
        return v

    def add(self, vec) -> bool:
        v = self.reduce(vec)
        if not v:
            return False
        pivot = min(v)
        pc = v[pivot]
        if pc != 1:
            v = {k: c / pc for k, c in v.items()}
        self._rows[pivot] = v
        return True

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    @property
    def rank(self) -> int:
        return len(self._rows)


def gf2_reduce(rows, mask: int) -> int:
    """The one member of mask + span(rows) with no row's top bit set, for
    rows from gf2_echelon: 0 exactly when mask lies in the span."""
    for row in rows:
        if mask ^ row < mask:  # mask holds row's top bit
            mask ^= row
    return mask


def gf2_echelon(masks) -> list:
    """Rows spanning the int masks over GF(2): distinct top bits, in
    decreasing order. Their number is the GF(2) rank of the masks."""
    rows = []
    for mask in masks:
        mask = gf2_reduce(rows, mask)
        if mask:
            rows = sorted(rows + [mask], reverse=True)
    return rows

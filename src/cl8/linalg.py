"""Exact linear algebra over Q or Q(i) for sparse vectors keyed by hashable labels.

Vectors are plain dicts mapping a key (a blade mask or any orderable
label) to a Fraction or GaussianRational coefficient. Rank and
coordinate solves run by incremental Gaussian elimination with no floating
point anywhere. `SpanBasis` keys its echelon rows by pivot, so a reduction
costs only the pivots it meets: a single-blade vector meets at most one.
"""

from __future__ import annotations

from fractions import Fraction


def _clean(vec) -> dict:
    return {k: c for k, c in vec.items() if c}


def _sub_scaled(v: dict, row: dict, factor) -> None:
    """In place: v -= factor * row, dropping exact zeros."""
    for k, c in row.items():
        delta = factor * c
        cur = v.get(k)
        nv = -delta if cur is None else cur - delta
        if nv:
            v[k] = nv
        else:
            v.pop(k, None)


class SpanBasis:
    """Row-echelon span tracker; add() reports whether the vector was new."""

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


def rank_of(vectors) -> int:
    """Dimension of the span of an iterable of sparse vectors."""
    basis = SpanBasis()
    for vec in vectors:
        basis.add(vec)
    return basis.rank


def express(target, basis_vectors):
    """Coordinates of target in the span of basis_vectors, or None.

    Returns a list of coefficients x with target == sum(x[i] * basis_vectors[i]),
    exact. Redundant basis vectors are fine; they get coefficient 0.
    """
    rows = []  # (pivot, normalized row, coords of that row in the inputs)
    for idx, vec in enumerate(basis_vectors):
        v = _clean(vec)
        coords = {idx: Fraction(1)}
        for pivot, row, rc in rows:
            if pivot in v:
                f = v[pivot]
                _sub_scaled(v, row, f)
                _sub_scaled(coords, rc, f)
        if v:
            pivot = min(v)
            pc = v[pivot]
            rows.append((pivot, {k: c / pc for k, c in v.items()},
                         {i: c / pc for i, c in coords.items()}))
    v = _clean(target)
    out = {}
    for pivot, row, rc in rows:
        if pivot in v:
            f = v[pivot]
            _sub_scaled(v, row, f)
            for i, c in rc.items():
                cur = out.get(i)
                nv = f * c if cur is None else cur + f * c
                if nv:
                    out[i] = nv
                else:
                    out.pop(i, None)
    if v:
        return None
    zero = Fraction(0)
    return [out.get(i, zero) for i in range(len(basis_vectors))]

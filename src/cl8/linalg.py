"""Exact linear algebra over Q or Q(i), and over GF(2) for blade masks.

Vectors are plain dicts mapping a key (a blade mask or any orderable
label) to a Fraction or GaussianRational coefficient. One elimination
kernel, `SpanBasis`, serves `rank_of` and `express`, with no floating point
anywhere: public API and the tests' rank oracle, which no certificate in
the package calls. It keys its rows by pivot, so a reduction costs only
the pivots it meets. Blade masks mod sign form GF(2)^n under XOR, and one
echelon, `gf2_echelon`, serves them.
"""

from __future__ import annotations

from fractions import Fraction


def _clean(vec) -> dict:
    return {k: c for k, c in vec.items() if c}


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

    Returns an exact list x with target == sum(x[i] * basis_vectors[i]); a
    redundant basis vector gets 0. Vector i enters a SpanBasis with each key
    k as (0, k) and a tag (1, i) of value 1. Tags sort after every own key,
    so a row's tags are its coordinates in the inputs. A vector whose own
    keys all cancel is redundant and is not added. The target is in the
    span when it reduces to tags alone, and then tag i holds -x[i].
    """
    basis = SpanBasis()
    for i, vec in enumerate(basis_vectors):
        tagged = {(0, k): c for k, c in vec.items()}
        tagged[1, i] = Fraction(1)
        v = basis.reduce(tagged)
        if min(v)[0] == 0:
            basis.add(v)
    v = basis.reduce({(0, k): c for k, c in target.items()})
    if v and min(v)[0] == 0:
        return None
    return [-v.get((1, i), Fraction(0)) for i in range(len(basis_vectors))]


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

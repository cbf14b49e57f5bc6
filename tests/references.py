"""References that several test modules check the engine against. A plain
module: pytest collects no tests from it."""

from ginshift.changes import CoordinateChange
from ginshift.fields import GFP
from ginshift.gin import _of_degree, _Trials


def initial_space(order, space):
    """Leading monomials of a ``Subspace``: exactly the pivot columns once
    the columns are ranked by ``order``."""
    index = {m: j for j, m in enumerate(space.columns)}
    ranking = [index[m] for m in order.sort_descending(space.columns)]
    return {space.columns[j] for j in space.leading_columns(ranking)}


def elementary_shift_space(order, monomials, ring, n, degree, a, b,
                           field=GFP) -> frozenset:
    """in_order(phi_{a,b}(span of the monomials)) within a single degree."""
    phi = CoordinateChange.elementary(a, b, n, field)
    monomials = _of_degree(monomials, ring, n, degree)
    return _Trials(ring, n, lambda d: monomials, [phi]).component(order, degree)

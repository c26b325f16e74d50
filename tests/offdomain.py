"""The off-domain half of ``pdot.laxator-commuter`` at a larger bound.

``verify_pdot`` decides the laxator square of every span pair at the
pair bound and counts, in a note, the pairs off the guaranteed class
domain whose square is not a commuter.  ``search_offdomain_witness``
looks further, over the whole span universe at a given bound, for the
first such pair; acceptance criterion 07 records what it finds."""

from doctrina.doubling import PDot


def search_offdomain_witness(pdot: PDot, max_size: int) -> str | None:
    """Search the whole span universe for a pair outside the guaranteed
    class domain whose laxator square is not a commuter.  Returns a
    witness string, or None when no such pair exists at this bound.

    The square is ``pdot.laxator-commuter``'s (``PDot._laxator_square``),
    decided by ``PDot._verdict``.  The witness names the entry
    s·|P(B)| + t of the square where the two composites first differ."""
    span = pdot.span
    spans = pdot.universe(max_size)
    for i in spans:
        for j in spans:
            if pdot.laxator_domain(span(i), span(j)):
                continue
            sq = pdot._laxator_square(i, j)
            if pdot._verdict(sq) < 2:
                top, bottom, left, right = pdot._sides(sq)
                pairs = zip(left.then(bottom).table, top.then(right).table)
                k = next(k for k, (p, q) in enumerate(pairs) if p != q)
                s, t = divmod(k, pdot.loose_image(span(j)).dom.size)
                return f"{span(i)} , {span(j)} at ({s}, {t})"
    return None

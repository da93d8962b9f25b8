"""The node blocks of one rule at one order: the reference of the tests of
rules, which compare nodes and weights rather than integrals."""

from cycleval.quadrature import _cut, _rule


def node_blocks(domain, order):
    """The nodes and weights of the rule of ``domain`` at ``order``, one
    block of at most ``quadrature._NODE_BLOCK`` nodes at a time, as a pass
    of ``quadrature.integrate`` over ``domain`` alone makes them."""
    return _cut([_rule(domain)[0](order)])

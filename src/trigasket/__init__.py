"""Exact-arithmetic model of the Sierpinski gasket as a bipointed-style
tri-pointed gluing system.

The package realizes the gasket three ways and proves them consistent:

* combinatorially, as canonical address words under junction rewriting
  (:mod:`trigasket.words`, :mod:`trigasket.metric`);
* categorically, as the initial algebra / final coalgebra of the
  three-copy gluing functor over 1-bounded marked metric spaces
  (:mod:`trigasket.spaces`, :mod:`trigasket.algebras`,
  :mod:`trigasket.coalgebras`);
* geometrically, as a subset of the plane whose points have a rational x
  and a y that is a rational multiple of sqrt 3 (:mod:`trigasket.geometry`).

All distances are exact (`Fraction` or `RadicalSum`); floats appear only
in display paths. Import names from the submodules.
"""

__version__ = "0.1.0"

"""Exact crystal bases for the negative half of quantum gl(m|n).

The package computes with three coupled layers:

* ``qfield``: exact rational-function arithmetic in q,
* ``superpbw``: the PBW algebra with its derivations, involution, crystal
  operators and lattice residues,
* ``combicrystal`` / ``limitcrystal``: the combinatorial crystal models and
  the limit construction they embed into,
* ``qboson``: the rank-one q-boson module checks backing the tensor rule,
* ``cli``: batch entry points (graph export, verification suites, component
  census).
"""

__version__ = "0.1.0"

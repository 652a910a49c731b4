"""Loss functions, rationale metrics, and a deterministic toy trainer.

The package has six layers:

* :mod:`losslab.losses` -- token losses (cross-entropy, focal) and region
  losses (soft, generalized and self-adjusting Dice, Lovász-Softmax) over
  logit batches, with analytic gradients and a mixed training objective;
* :mod:`losslab.gradcheck` -- finite-difference verification of those
  gradients, aware of non-differentiable points;
* :mod:`losslab.parsing` -- chain-of-thought completions parsed into flat
  reasoning steps (infix and program surface forms);
* :mod:`losslab.metrics` -- exact match, multiset step overlap, and an error
  typology over parsed rationales;
* :mod:`losslab.stats` -- paired significance tests, correlation, mean rank,
  and token-density estimation, implemented from scratch;
* :mod:`losslab.training` -- a tiny deterministic trainer that exercises the
  losses end to end, with binary snapshots and JSONL traces.

:mod:`losslab.cli` ties the layers together behind the ``losslab`` command.
"""

__version__ = "0.1.0"


class DataError(ValueError):
    """Input the program cannot use; ``losslab`` exits 2 on it."""

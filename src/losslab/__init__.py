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

from enum import Enum

__version__ = "0.1.0"


class DataError(ValueError):
    """Input the program cannot use; ``losslab`` exits 2 on it."""


# The names below live here, without NumPy, because ``losslab``'s parser and
# ``main`` read them and load no numeric layer: the other error that main
# turns into exit 2, and the loss names and check defaults of the grad-check
# flags. ``training``, ``losses`` and ``gradcheck`` re-export them.


class TrainingDiverged(ArithmeticError):
    """A step's logits, loss or updated parameters stopped being finite."""


class AuxiliaryKind(Enum):
    """Which auxiliary loss the combined objective applies to answer positions."""

    FOCAL = "fl"
    DICE = "dl"
    GENERALIZED_DICE = "gdl"
    SELF_ADJUSTING_DICE = "sadl"
    LOVASZ = "ll"
    NONE = "none"


# the losses grad-check knows, by name: an auxiliary loss by its AuxiliaryKind
LOSS_NAMES = ("ce", *(k.value for k in AuxiliaryKind if k is not AuxiliaryKind.NONE), "combined")
# the central-difference step and the pass threshold of every check
DEFAULT_STEP = 1e-5
DEFAULT_TOLERANCE = 1e-4

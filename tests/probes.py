"""Read-outs that a run does not return: the backbone's bytes, the optimizer
state a training run ended with, and the values a forward made."""

from sparseadapter import autodiff as ad
from sparseadapter import training


def backbone_bytes(model) -> bytes:
    """Every backbone group's weights, joined in registry order."""
    return b"".join(model.groups[n].tensor.data.tobytes()
                    for n in model.backbone_group_names())


def keep_adam_states(monkeypatch) -> list:
    """Patch `training.masked_adam_step` to keep the AdamState it updates.
    The list gets one entry per `train` call that takes a step, in call
    order; after the call returns, its entry is the final optimizer state."""
    states = []
    step = training.masked_adam_step

    def keeping(params, grads, mask, state, *args):
        if not states or states[-1] is not state:
            states.append(state)
        step(params, grads, mask, state, *args)

    monkeypatch.setattr(training, "masked_adam_step", keeping)
    return states


def keep_op_outputs(monkeypatch) -> list:
    """Patch `autodiff._from_op` to keep every Tensor an engine op makes. The
    list gets each op's output in the order the ops ran, and keeps it alive
    for the test to read: a graph keeps only the values its vjps read."""
    outputs = []
    from_op = ad._from_op

    def keeping(*args):
        out = from_op(*args)
        outputs.append(out)
        return out

    monkeypatch.setattr(ad, "_from_op", keeping)
    return outputs

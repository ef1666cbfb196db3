"""Read-outs of a training run that `train` does not return: the backbone's
bytes and the optimizer state it ended with."""

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

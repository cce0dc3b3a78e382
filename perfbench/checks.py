"""Correctness checks of every mode's first step against sync eager.

Every mode of a program is built from the same seed and takes one
step; its loss and updated state must equal the sync-eager step's
bitwise.  Where a NumPy reference exists (the MLP), every mode is also
compared with it.

One cell cannot be compared with eager: staged L2HMC (and the same
step on ``/tpu:0``) draws a different random stream than eager under
the same seed, because its variables are created while tracing.  That
cell gets the strongest check available from outside, named as the
weaker check in the output: starting from its own traced-in initial
weights, the first Adam update must move every weight by at most the
learning rate, must move most weights by about that much (gradients
reach every variable), and must keep the variable set of the eager run.
"""

from __future__ import annotations

import math

import numpy as np

from programs import MODES

ADAM_WEAKER = (
    "adam_first_step: staged L2HMC does not match eager under the same "
    "seed (known divergence); checked against its own initial weights"
)


def _bitwise(ref: dict, snap: dict) -> tuple:
    if sorted(ref) != sorted(snap):
        return False, "state keys differ"
    for key in ref:
        if ref[key].shape != snap[key].shape or not np.array_equal(ref[key], snap[key]):
            diff = (
                float(np.max(np.abs(ref[key] - snap[key])))
                if ref[key].shape == snap[key].shape
                else "shape"
            )
            return False, f"{key} differs (max abs diff {diff})"
    return True, ""


def _adam_first_step(initial: dict, after: dict, ref: dict, lr: float) -> tuple:
    weights = sorted(k for k in after if k.startswith("w"))
    ref_weights = sorted(k for k in ref if k.startswith("w"))
    if weights != ref_weights:
        return False, "variable set differs from eager"
    for key in weights:
        if after[key].shape != ref[key].shape:
            return False, f"{key} shape differs from eager"
        delta = np.abs(after[key] - initial[key])
        if not np.all(np.isfinite(after[key])):
            return False, f"{key} not finite"
        if float(delta.max()) > lr * (1 + 1e-3):
            return False, f"{key} moved {float(delta.max())} > lr"
        if float(np.mean(delta > lr / 2)) < 0.5:
            return False, f"{key}: most weights did not move"
    return True, ""


def check_modes(prog, runners: dict, book) -> None:
    sync = runners["sync"]
    ref = sync.snapshot()
    for mode in MODES:
        runner = runners[mode]
        snap = runner.snapshot()
        if runner.reference is not None:
            passed = all(
                np.allclose(snap[k], v, rtol=1e-5, atol=1e-6)
                for k, v in runner.reference.items()
            )
            book.check(f"{prog.name}:{mode}_vs_numpy", passed)
        if mode == "sync":
            continue
        if runner.initial is not None:
            passed, detail = _adam_first_step(
                runner.initial, snap, ref, prog.learning_rate
            )
            passed = passed and math.isfinite(runner.first_loss)
            book.check(f"{prog.name}:{mode}_vs_sync", passed, detail, ADAM_WEAKER)
            continue
        passed, detail = _bitwise(ref, snap)
        if passed and runner.first_loss != sync.first_loss:
            passed, detail = False, f"loss {runner.first_loss} != {sync.first_loss}"
        book.check(f"{prog.name}:{mode}_vs_sync", passed, detail)

"""Pinned numbers of the simulated-clock gate tests.

The fleet-scaling, affinity, autoscaler, continuous-batching and
cache-tier gates run seeded workloads under a
:class:`~repro.serving.SimulatedClock` (zero sleeps, virtual service
times), so every number they produce is a pure function of the seeds.
``golden_sim_gates.json`` pins those numbers per section and the gate
tests compare against it exactly; re-record a section only for an
intended change to the serving or cost model, so that the diff is
reviewed.
"""

import json
from pathlib import Path

from repro.serving import mixed_decode_trace
from repro.workloads.transformer import TransformerConfig

GOLDEN_PATH = Path(__file__).with_name("golden_sim_gates.json")


def golden(*keys):
    """The pinned value at ``golden_sim_gates.json[keys[0]][keys[1]]...``."""
    value = json.loads(GOLDEN_PATH.read_text())
    for key in keys:
        value = value[key]
    return value


#: The vision model of the routing and fleet-memo gates: a one-layer
#: single-channel ViT on 16x16 images.
TINY_VIT = TransformerConfig(
    "gate-vit", depth=1, dim=32, heads=2, seq_len=17, mlp_ratio=2.0,
    n_classes=4, patch_size=4, image_size=16, in_channels=1,
)


def continuous_trace():
    """The mixed-length decode trace of the continuous-batching gates:
    12 closed-loop sessions of 2-10 steps arriving over 10 ms."""
    return mixed_decode_trace(
        12, seed=42, min_steps=2, max_steps=10, horizon_s=10e-3
    )

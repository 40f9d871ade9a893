"""Seeded defect: a widened state tuple emitted unconditionally (OBI305).

``WideMode`` copied the ``*rest`` optional-tail unpack from
``ReplicationMode`` but not the discipline that makes it pay: the
getter always returns the 4-tuple, so even callers that never set
``turbo`` ship the widened frame and its extra bytes.
"""

from repro.serial.registry import global_registry


class WideMode:
    def __init__(self, chunk=1, depth=0, clustered=False, turbo=0):
        self.chunk = chunk
        self.depth = depth
        self.clustered = clustered
        self.turbo = turbo


def _mode_state(mode):
    # Defect: no ``if mode.turbo:`` guard — the wide tuple always ships.
    return (mode.chunk, mode.depth, mode.clustered, mode.turbo)


def _mode_set_state(mode, state):
    chunk, depth, clustered, *rest = state
    mode.chunk = chunk
    mode.depth = depth
    mode.clustered = clustered
    mode.turbo = rest[0] if rest else 0


global_registry.register(
    WideMode,
    name="fixture.WideMode",
    get_state=_mode_state,
    set_state=_mode_set_state,
)

"""An engine core: its own ``handles`` counts, a bare reference does not."""

from .events import EventKind


class MiniEngineCore:
    handles = (EventKind.KERNEL_READY,)

    def run_loop(self) -> object:
        return EventKind.KERNEL_READY  # the hot path named in `handles`

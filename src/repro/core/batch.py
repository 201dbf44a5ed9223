"""The batch plane: ack coalescing and liveness piggybacking (beyond the paper).

Batched transmission itself lives in the communication buffer
(:mod:`repro.core.buffer`).  This plane is the cohort side of
:class:`~repro.config.BatchConfig`:

- **ack coalescing** -- acks are cumulative, so a backup answers every
  buffer message applied during one ``flush_interval`` tick with a single
  ack instead of one each;
- **liveness piggybacking** -- buffer messages and acks carry ``sent_at``,
  so receivers feed their failure detector (and RTT estimator) from them,
  and the periodic I'm-alive beacon to a peer that such traffic reached
  within half an interval is skipped as redundant.
"""

from __future__ import annotations

from math import inf
from typing import Dict, List, Tuple

from repro.config import BatchConfig
from repro.core.cohort import Status
from repro.core.messages import BufferAckMsg, BufferMsg, ImAliveMsg
from repro.core.plane import Plane


class BatchPlane(Plane):
    """Batched-mode ack and liveness handling for one cohort."""

    def __init__(self, cohort, batch: BatchConfig):
        self.cohort = cohort
        self.flush_interval = batch.flush_interval
        #: peer mid -> last time buffer traffic carrying sent_at went to it
        self.liveness_sent: Dict[int, float] = {}
        #: applied-but-unacked buffer messages, and whether the coalescing
        #: timer is armed
        self.acks_pending = 0
        self.ack_timer_armed = False

    def on_receive(self, msg) -> bool:
        cohort = self.cohort
        if type(msg) is BufferMsg:
            # Buffer traffic from the primary is proof of life.
            cohort.detect.heard(cohort.cur_view.primary, sent_at=msg.sent_at)
        elif type(msg) is BufferAckMsg:
            # Acks prove the sender is alive, so it may skip its beacon.
            cohort.detect.heard(msg.mid, sent_at=msg.sent_at)
        return False

    def on_send(self, dest: int, msg) -> int:
        if type(msg) is not ImAliveMsg:
            now = self.cohort.sim.now
            self.liveness_sent[dest] = now
            if type(msg) is BufferAckMsg:
                msg.sent_at = now  # buffer messages are stamped by the buffer
        return dest

    def beacon_targets(self, targets: List[Tuple[int, str]]) -> List[Tuple[int, str]]:
        # Skip peers that buffer traffic carrying sent_at reached recently.
        now = self.cohort.sim.now
        half = 0.5 * self.cohort.config.im_alive_interval
        sent = self.liveness_sent
        return [pair for pair in targets if not now - sent.get(pair[0], -inf) < half]

    def defer_ack(self) -> bool:
        if self.flush_interval <= 0:
            return False
        self.acks_pending += 1
        if self.ack_timer_armed:
            return True
        self.ack_timer_armed = True
        cohort = self.cohort
        epoch = cohort._epoch
        viewid = cohort.cur_viewid

        def fire() -> None:
            self.ack_timer_armed = False
            coalesced, self.acks_pending = self.acks_pending, 0
            if (
                cohort._epoch != epoch
                or cohort.status is not Status.ACTIVE
                or cohort.cur_viewid != viewid
                or cohort.is_primary
            ):
                return
            cohort.emit("ack_coalesce", coalesced=coalesced, acked_ts=cohort.applied_ts)
            cohort.send_ack()

        cohort.set_timer(self.flush_interval, fire)
        return True

    def on_crash(self) -> None:
        # The crash cancelled the coalescing timer; a flag left armed would
        # swallow every ack after recovery.
        self.liveness_sent = {}
        self.acks_pending = 0
        self.ack_timer_armed = False

"""Planes: extensions attached to a cohort from outside the paper's core.

A :class:`~repro.core.cohort.Cohort` with no planes runs exactly the
protocol of PAPER.md Figures 2-5.  Batching (:mod:`repro.core.batch`),
reads (:class:`repro.reads.lease.ReadState`) and large-cohort mechanisms
(:class:`repro.scale.plane.ScalePlane`) are planes that
``repro.runtime.build_planes`` builds from the config; the core never
imports their packages.  The cohort calls each hook of every plane in
attachment order (scale, batch, reads) at fixed points of its own code, so
a configuration's schedule is the same run after run.  DESIGN.md lists
which plane uses which hook.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

#: Dispatch-table entry: the handler and whether it needs an active primary.
Handler = Tuple[Callable[..., None], bool]


class Plane:
    """Base class: every hook is a no-op, so a plane overrides only what
    it uses."""

    def handlers(self) -> Dict[type, Handler]:
        """Message types the plane owns, added to the dispatch table."""
        return {}

    def on_receive(self, msg) -> bool:
        """A beacon, buffer message or buffer ack arrived; True consumes
        an ack (it then skips the primary's buffer)."""
        return False

    def on_send(self, dest: int, msg) -> int:
        """A beacon, buffer message or buffer ack is about to leave for
        *dest*: stamp it; returns the (possibly re-routed) destination."""
        return dest

    def beacon_targets(self, targets: List[Tuple[int, str]]) -> List[Tuple[int, str]]:
        """This heartbeat's (peer, address) fan-out."""
        return targets

    def defer_ack(self) -> bool:
        """True when the plane will send the buffer ack itself, later."""
        return False

    def on_accept(self, msg) -> None:
        """This cohort's own acceptance of an invitation (Figure 5
        ``do_accept``) was built and is about to count or be sent: stamp it."""

    def activation_bound(self, responses, primary: int) -> float:
        """The instant before which the new *primary* of a view formed from
        the acceptances *responses* must not activate (0.0: at once)."""
        return 0.0

    def on_heartbeat(self) -> None:
        """Once per heartbeat tick, after the beacons went out."""

    def on_view_installed(self) -> None:
        """The cohort became active in a new view (primary or backup)."""

    def on_leave_active(self) -> None:
        """The cohort stopped processing for a view change."""

    def on_crash(self) -> None:
        """The process died: drop volatile plane state."""

    def on_recover(self) -> None:
        """The process came back."""

"""The successive-interference-cancellation receiver (Li & Dai).

The despreader bank (:mod:`repro.radio.spreadspectrum`) models *how
many* transmissions a receiver can track at once; a
:class:`SicReceiver` on a bank models *what the demodulator does with
the interference* while tracking one of them.  A bank without one is
the plain Section 3.4 receiver: interference is noise, full stop.  The
SIC receiver (Li & Dai's SIC-Aloha receiver) at every interference
change decodes the strongest interferer that clears the modem
threshold, subtracts its contribution, and retries the remainder, up to
a bounded cancellation depth.  A MAC descriptor that names one
(``sic_aloha``) has it installed on every bank of the network.

Design rules the medium relies on:

* The model is **pure and stateless**:
  :meth:`SicReceiver.resolve_interference` is a function of its
  arguments only, so one frozen instance is safely shared by every
  station in every network and replay digests cannot depend on
  sharing.
* Cancellation is **per-receiver local**.  The model returns a reduced
  interference level for *one* reception; the medium's shared
  incremental field (``gains @ powers``) is never mutated — other
  receivers still see every watt actually radiated.
* The order is **deterministic**: candidates sort by descending
  received power with the transmission sequence number as the
  tie-break, so equal-power interferers cancel in a reproducible
  order at any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Sequence, Tuple

__all__ = ["SicReceiver"]


@dataclass(frozen=True)
class SicReceiver:
    """Successive interference cancellation (Li & Dai).

    At each interference change the receiver considers the cancellable
    interferers strongest-first.  An interferer is decodable — and
    therefore removable — iff its own SIR against *everything else
    still on the air at this receiver* (the wanted signal included)
    clears the modem threshold:

        p_j >= threshold * (residual_total - p_j + thermal)

    where ``residual_total`` is the wanted signal plus the not-yet-
    cancelled interference.  Decoding stops at the first undecodable
    candidate (successive cancellation cannot skip ahead: the next-
    strongest signal is by definition even harder to decode) or at
    :attr:`depth` cancellations.  Ties in received power break on the
    transmission sequence number, ascending, so the order is exact and
    reproducible.

    Attributes:
        name: the tag ``repro macs`` shows for a MAC that installs it.
        depth: maximum interferers cancelled per reception per
            interference change (bounded hardware pipeline).
    """

    name: ClassVar[str] = "sic"
    depth: int = 4

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("cancellation depth must be at least 1")

    def resolve_interference(
        self,
        wanted_signal_w: float,
        interference_w: float,
        thermal_w: float,
        threshold: float,
        contributions: Sequence[Tuple[float, int]],
    ) -> Tuple[float, int]:
        """Reduce the interference seen by one tracked reception.

        Args:
            wanted_signal_w: received power of the wanted signal.
            interference_w: aggregate interference at the receiver
                right now, excluding the wanted signal (but including
                self-coupling and any contributions the model may not
                cancel).
            thermal_w: receiver thermal noise floor.
            threshold: the receiver's required SIR (interferers are
                decoded by the same modem, so the same threshold
                gates their cancellation).
            contributions: cancellable interferers as
                ``(received_power_w, seq)`` pairs, in any order.  The
                medium excludes the wanted transmission and the
                receiver's own keyed transmitter (the Type 3 self-jam
                is unconditional; a station cannot despread anything —
                its own signal included — while transmitting).

        Returns:
            ``(reduced_interference_w, cancelled_count)`` where the
            reduced level is what the SIR criterion should see
            (``0 <= reduced <= interference_w``).
        """
        if not contributions or interference_w <= 0.0:
            return interference_w, 0
        ordered: List[Tuple[float, int]] = sorted(
            contributions, key=lambda entry: (-entry[0], entry[1])
        )
        # What the front end sees besides thermal noise: the wanted
        # signal is real power to an interferer's decoder.
        residual_total = wanted_signal_w + interference_w
        cancelled_power = 0.0
        cancelled = 0
        for power, _seq in ordered:
            if cancelled >= self.depth:
                break
            if power <= 0.0:
                break
            others = residual_total - power
            if power >= threshold * (others + thermal_w):
                residual_total -= power
                cancelled_power += power
                cancelled += 1
            else:
                break
        if cancelled == 0:
            return interference_w, 0
        return max(interference_w - cancelled_power, 0.0), cancelled

"""The open-loop request generator.

Requests go out on a fixed schedule whatever the replies do, so a stall
makes later requests wait rather than arrive later.  Latency is therefore
timed from each request's *due* time, and the generator reports how late
it actually sent each one.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from collections.abc import Awaitable, Callable


def poisson_schedule(rng: random.Random, rate: float, n: int) -> list[float]:
    """Due times (seconds from start) of ``n`` arrivals at ``rate``, with
    exponentially distributed gaps.

    The gaps are the exponential distribution's quantiles at ``(i + 0.5)
    / n``, in a seeded order, scaled so the ``n`` gaps span exactly ``n /
    rate`` seconds.  Every seed thus offers the same load with the same
    spread of gaps, and differs only in where the bursts fall; an
    independent draw per seed would also vary the load itself.
    """
    gaps = [-math.log(1 - (i + 0.5) / n) for i in range(n)]
    rng.shuffle(gaps)
    scale = (n / rate) / sum(gaps)
    due, out = 0.0, []
    for gap in gaps:
        due += gap * scale
        out.append(due)
    return out


async def open_loop(due_times: list[float],
                    send: Callable[[int], Awaitable],
                    ) -> list[tuple[float, float, object]]:
    """Send request ``i`` at ``due_times[i]`` seconds after the start.

    ``send(i)`` submits synchronously and returns an awaitable reply; it
    may raise to refuse the request.  Returns, per request, ``(lateness,
    latency, outcome)``: how late the generator sent it, the time from its
    due time to its reply (or refusal), and the reply or the exception.
    """
    start = time.perf_counter()
    sent: list[tuple[float, object]] = []   # (lateness, reply task | row)

    async def reply(pending: Awaitable, due: float):
        try:
            outcome = await pending
        except Exception as exc:       # a failed request is a miss
            outcome = exc
        return time.perf_counter() - due, outcome

    for i, offset in enumerate(due_times):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        late = max(0.0, time.perf_counter() - due)
        try:
            pending = send(i)
        except Exception as exc:       # refused at admission
            sent.append((late, (time.perf_counter() - due, exc)))
            continue
        sent.append((late, asyncio.ensure_future(reply(pending, due))))
    out = []
    for late, entry in sent:
        latency, outcome = await entry if isinstance(entry, asyncio.Future) \
            else entry
        out.append((late, latency, outcome))
    return out

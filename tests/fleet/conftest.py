"""Fleet-suite fixtures: a servlet registry and coordinator factory.

Coordinators and host processes are always torn down, even on assertion
failure.  An agent exits by itself only when the process that started
it dies (EOF on its control channel), so a leaked agent would otherwise
outlive the test that made it.
"""

import time

import pytest

from repro.core import Capability, Domain, Remote
from repro.fleet import FleetCoordinator


class IEcho(Remote):
    def echo(self, text): ...

    def shout(self, text): ...


class EchoImpl(IEcho):
    def echo(self, text):
        return text

    def shout(self, text):
        return text.upper()


def echo_setup():
    domain = Domain("fleet-echo")
    return domain.run(lambda: Capability.create(EchoImpl(), label="echo"))


def spin_setup():
    """A servlet that burns measurable CPU per call (quota tests)."""

    class ISpin(Remote):
        def spin(self, n): ...

    class SpinImpl(ISpin):
        def spin(self, n):
            total = 0
            for i in range(int(n)):
                total += i
            return total

    domain = Domain("fleet-spin")
    return domain.run(lambda: Capability.create(SpinImpl(), label="spin"))


REGISTRY = {"echo": echo_setup, "spin": spin_setup}


@pytest.fixture()
def fleet():
    """A coordinator factory; everything it makes is stopped on exit."""
    made = []

    def factory(**kwargs):
        kwargs.setdefault("heartbeat_interval", 0.1)
        kwargs.setdefault("ping_deadline", 0.1)
        coordinator = FleetCoordinator(REGISTRY, **kwargs).start()
        made.append(coordinator)
        return coordinator

    try:
        yield factory
    finally:
        for coordinator in made:
            coordinator.stop()


def retry_call(coordinator, name, method, *args, timeout=10.0, poll=0.05):
    """A well-behaved fleet client: rebind (lookup) and retry through
    typed errors until the call lands or ``timeout`` passes.  Returns
    (result, error_types_seen)."""
    from repro.fleet import FleetUnavailableError, TokenError

    seen = set()
    deadline = time.monotonic() + timeout
    while True:
        try:
            token = coordinator.lookup(name)
            return coordinator.call(token, method, *args), seen
        except (FleetUnavailableError, TokenError) as exc:
            seen.add(type(exc).__name__)
            if time.monotonic() > deadline:
                raise
            time.sleep(poll)

"""Seeded input generators, one per workload.

Every input is generated from ``--seed`` before any clock starts; the
system under test only ever sees the generated bytes.  Each workload
also reports the measured properties of what it generated
(:func:`properties`), so a later claim that a change helps "only
requests with property X" can cite the share of X in each workload.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from repro.bench.workloads import BROWSER_HEADERS, PAGE_SIZES, make_documents
from repro.web import format_request

#: Closed-loop callers per workload: at most ``nproc`` on the 2-vCPU
#: reference host, all driven from one selector thread.
CONNECTIONS = 2
#: Requests generated per connection; the script repeats when a run
#: outlasts it (the kv and fleet models carry their state across laps).
SCRIPT_LENGTH = 4096

OOP_SIZES = (100, 1000, 65536)
OOP_WEIGHTS = (0.4, 0.4, 0.2)
KV_KEYS_PER_CONNECTION = 64
KV_SIZES = (100, 1000)
KV_READ_SHARE = 0.8
FLEET_PLACEMENTS = (("p0", "tenant-a"), ("p1", "tenant-b"),
                    ("p2", "tenant-a"), ("p3", "tenant-b"))
FLEET_KEYS_PER_PLACEMENT = 32
FLEET_READ_SHARE = 0.8

WORKLOADS = ("table5-servlet", "oop-servlet", "kv-policy", "fleet-call")


@dataclass(frozen=True)
class HttpCall:
    """One generated HTTP request and what checking its reply needs."""

    kind: str        # "doc" (fixed body), "get" or "put" (kv model)
    method: str
    path: str
    raw: bytes       # the exact request bytes sent on the socket
    body: bytes = b""
    key: str = ""
    size: int = 0    # size class: document, record or written value


@dataclass(frozen=True)
class FleetCall:
    kind: str        # "get" or "put"
    placement: str
    key: str
    value: str = ""


@dataclass
class Inputs:
    workload: str
    seed: int
    #: One script per closed-loop caller (HttpCall or FleetCall items).
    scripts: list
    #: Expected reply body per request path for "doc" requests.
    documents: dict = field(default_factory=dict)
    #: Initial store contents: kv key -> bytes, or (placement, key) -> str.
    initial: dict = field(default_factory=dict)


def http_call(kind, method, path, body=b"", key="", size=0):
    """One request with its exact wire bytes (Table 5 browser headers)."""
    raw = format_request(method, path, BROWSER_HEADERS, body=body,
                         keep_alive=True)
    return HttpCall(kind, method, path, raw, body, key, size)


def table5_servlet(seed):
    rng = random.Random(seed)
    documents = {f"/servlet{path}": body
                 for path, body in make_documents().items()}
    scripts = []
    for _ in range(CONNECTIONS):
        scripts.append([
            http_call("doc", "GET", f"/servlet/doc{size}", size=size)
            for size in rng.choices(PAGE_SIZES, k=SCRIPT_LENGTH)
        ])
    return Inputs("table5-servlet", seed, scripts, documents)


def oop_bodies(seed):
    """The out-of-process servlets' documents, one per size class."""
    rng = random.Random(f"oop-bodies-{seed}")
    return {size: rng.randbytes(size) for size in OOP_SIZES}


def oop_servlet(seed):
    rng = random.Random(seed)
    bodies = oop_bodies(seed)
    documents = {f"/servlet/odoc{size}": body
                 for size, body in bodies.items()}
    scripts = []
    for _ in range(CONNECTIONS):
        scripts.append([
            http_call("doc", "GET", f"/servlet/odoc{size}", size=size)
            for size in rng.choices(OOP_SIZES, OOP_WEIGHTS, k=SCRIPT_LENGTH)
        ])
    return Inputs("oop-servlet", seed, scripts, documents)


def kv_policy(seed):
    """80/20 GET/POST over a per-connection partition of the key space.

    Partitioning keeps every key single-writer, so the client can check
    each read against the value its own connection last wrote.
    """
    rng = random.Random(seed)
    initial = {}
    scripts = []
    for conn in range(CONNECTIONS):
        keys = [f"c{conn}k{index:03d}"
                for index in range(KV_KEYS_PER_CONNECTION)]
        for key in keys:
            initial[key] = rng.randbytes(rng.choice(KV_SIZES))
        script = []
        for _ in range(SCRIPT_LENGTH):
            key = rng.choice(keys)
            if rng.random() < KV_READ_SHARE:
                script.append(http_call("get", "GET", f"/servlet/kv/{key}",
                                        key=key))
            else:
                size = rng.choice(KV_SIZES)
                script.append(http_call("put", "POST", f"/servlet/kv/{key}",
                                        body=rng.randbytes(size), key=key,
                                        size=size))
        scripts.append(script)
    return Inputs("kv-policy", seed, scripts, initial=initial)


def _fleet_value(rng):
    return "".join(rng.choices("abcdefghijklmnopqrstuvwxyz0123456789",
                               k=rng.randint(8, 32)))


def fleet_call(seed):
    """Get/put (80/20) over four placements; one caller thread.

    ``FleetCoordinator.call`` is a blocking call, so the fleet workload
    drives one closed-loop caller rather than two threads whose GIL
    hand-offs would show up as client-side latency.
    """
    rng = random.Random(seed)
    initial = {}
    for placement, _tenant in FLEET_PLACEMENTS:
        for index in range(FLEET_KEYS_PER_PLACEMENT):
            initial[(placement, f"k{index:02d}")] = _fleet_value(rng)
    script = []
    for _ in range(SCRIPT_LENGTH):
        placement = rng.choice(FLEET_PLACEMENTS)[0]
        key = f"k{rng.randrange(FLEET_KEYS_PER_PLACEMENT):02d}"
        if rng.random() < FLEET_READ_SHARE:
            script.append(FleetCall("get", placement, key))
        else:
            script.append(FleetCall("put", placement, key,
                                    _fleet_value(rng)))
    return Inputs("fleet-call", seed, [script], initial=initial)


GENERATORS = {
    "table5-servlet": table5_servlet,
    "oop-servlet": oop_servlet,
    "kv-policy": kv_policy,
    "fleet-call": fleet_call,
}


def generate(workload, seed):
    return GENERATORS[workload](seed)


def _shares(counter, total):
    return {str(name): round(count / total, 4)
            for name, count in sorted(counter.items())}


def properties(inputs):
    """Measured properties of the generated inputs (not of the run)."""
    calls = [call for script in inputs.scripts for call in script]
    total = len(calls)
    kinds = Counter(call.kind for call in calls)
    if inputs.workload == "fleet-call":
        return {
            "requests": total,
            "callers": len(inputs.scripts),
            "kind_share": _shares(kinds, total),
            "placement_share": _shares(
                Counter(call.placement for call in calls), total),
            "distinct_keys": len({(c.placement, c.key) for c in calls}),
            "mean_value_bytes": round(
                sum(len(c.value) for c in calls if c.kind == "put")
                / max(1, kinds["put"]), 1),
        }
    sizes = Counter(call.size for call in calls if call.size)
    request_bytes = sum(len(call.raw) for call in calls)
    props = {
        "requests": total,
        "connections": len(inputs.scripts),
        "kind_share": _shares(kinds, total),
        "path_share": _shares(
            Counter(call.path.rsplit("/", 1)[0] if call.key else call.path
                    for call in calls), total),
        "size_share": _shares(sizes, max(1, sum(sizes.values()))),
        "mean_request_bytes": round(request_bytes / total, 1),
    }
    if inputs.documents:
        props["mean_response_body_bytes"] = round(
            sum(len(inputs.documents[call.path]) for call in calls) / total,
            1)
    if inputs.initial:
        props["distinct_keys"] = len({call.key for call in calls})
        props["working_set_keys"] = len(inputs.initial)
        props["mean_initial_value_bytes"] = round(
            sum(map(len, inputs.initial.values())) / len(inputs.initial), 1)
    return props

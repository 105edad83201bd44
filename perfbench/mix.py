"""serve-mix: the seeded request generator and the closed-loop client.

No recorded daemon traffic exists, so the mix is synthetic.  Its
proportions follow three stated rules rather than tuned shares:

- every job kind the catalog grids offer for small jobs gets the same
  number of first-seen jobs per session (PER_KIND): with no traffic
  data, no kind is favoured.  Fischer margins are left out: at ~130 ms
  a job they are not small (a cold fischer n=3 verify, the largest
  small job, takes ~20 ms), and margin-fischer3 covers them;
- hits and first-seen (cold) jobs are drawn one for one.  Both the hit
  and the cold latency need at least 10 samples beyond their p99, and
  for a fixed run time the smaller of two sample counts is largest when
  they are equal;
- one first-seen job of each kind per session is sent twice in a row,
  so that every kind is coalesced once per session.

The seed picks which parameters, in which order, and which earlier
requests repeat; the work per session barely depends on it.  The
harness prints the resulting hit share and how the daemon's and the
worker's CPU split between the hit and the cold path.
"""

import json
import random
import selectors
import socket
import struct
import time

# Costs on a 2-vCPU x86-64 VM, cold, median: fischer n=3 ~19 ms, fd
# margin ~12 ms, the rest 1.5-3 ms; a hit 0.1-0.6 ms.
KINDS = ("fischer3", "fischer2", "rm", "relay", "ring", "fd-margin")
PER_KIND = 4  # first-seen jobs per kind per session
HITS_PER_COLD = 1


def universe():
    """Every job the generator can draw, by kind, as request objects
    (without id), in a fixed order."""
    fischer = lambda n: [
        {"op": "verify", "system": "fischer", "item": 0, "params": {"n": n, "a": a, "b": b}}
        for a in (1, 2, 3)
        for b in (1, 2, 3, 4)
    ]
    return {
        "fischer3": fischer(3),
        "fischer2": fischer(2),
        "rm": [
            {"op": "verify", "system": "rm", "item": item,
             "params": {"k": k, "c1": c1, "c2": c2, "l": l}}
            for k in range(1, 11)
            for (c1, c2, l) in ((2, 3, 1), (3, 4, 1), (3, 5, 2), (4, 6, 1), (2, 2, 1))
            for item in (0, 1)
        ],
        "relay": [
            {"op": "verify", "system": "relay", "item": 0, "params": {"n": n, "d1": d1, "d2": d2}}
            for n in range(1, 9)
            for (d1, d2) in ((1, 2), (1, 3), (2, 3), (0, 1), (2, 2))
        ],
        "ring": [
            {"op": "verify", "system": "ring", "item": 0, "params": {"n": n, "d1": d1, "d2": d2}}
            for n in range(2, 7)
            for (d1, d2) in ((1, 2), (1, 3), (2, 3), (2, 2), (1, 1))
        ],
        "fd-margin": [
            {"op": "margin", "system": "fd", "params": {"g1": g1, "g2": g2, "m": 1}}
            for g1 in (3, 4, 5, 6)
            for g2 in (g1, g1 + 1)
        ],
    }


def key(req):
    return json.dumps(req, sort_keys=True)


def session(rng, jobs):
    """One session's request sequence: [(request, first_seen)]."""
    fresh, twins = [], []
    for kind in KINDS:
        drawn = rng.sample(jobs[kind], PER_KIND)
        fresh += drawn
        twins.append(key(rng.choice(drawn)))
    rng.shuffle(fresh)
    # "F" a first-seen job, "H" a repeat of one seen before; a session
    # starts with a first-seen job, since a hit needs one.
    slots = ["F"] * len(fresh) + ["H"] * (HITS_PER_COLD * len(fresh))
    rng.shuffle(slots)
    first = slots.index("F")
    slots[0], slots[first] = slots[first], slots[0]
    seq, seen = [], []
    for slot in slots:
        if slot == "F":
            job = fresh.pop()
            seq.append((job, True))
            seen.append(job)
            if key(job) in twins:
                seq.append((job, False))
        else:
            seq.append((rng.choice(seen), False))
    return seq


def sessions(seed):
    """The endless, seed-determined sequence of sessions."""
    jobs = universe()
    k = 0
    while True:
        yield session(random.Random("%d/%d" % (seed, k)), jobs)
        k += 1


# --------------------------------------------------------------------
# wire format: u32 big-endian length + JSON payload


def frame(payload):
    data = payload.encode()
    return struct.pack(">I", len(data)) + data


class Reader:
    def __init__(self):
        self.buf = b""

    def feed(self, data):
        self.buf += data
        out = []
        while len(self.buf) >= 4:
            (n,) = struct.unpack(">I", self.buf[:4])
            if len(self.buf) < 4 + n:
                break
            out.append(self.buf[4 : 4 + n].decode())
            self.buf = self.buf[4 + n :]
        return out


def connect(path, deadline):
    while True:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(path)
            return s
        except (FileNotFoundError, ConnectionRefusedError):
            s.close()
            if time.monotonic() > deadline:
                raise
            time.sleep(0.002)


def call(sock, payload, timeout):
    """One blocking request/response on a connection."""
    sock.settimeout(timeout)
    sock.sendall(frame(payload))
    rd = Reader()
    while True:
        data = sock.recv(65536)
        if not data:
            raise ConnectionError("daemon closed the connection")
        got = rd.feed(data)
        if got:
            return got[0]


def closed_loop(path, payloads, connections, timeout):
    """Send payloads over `connections` connections, each sending its
    next request only when its previous reply has arrived.  Returns, per
    payload, (latency_s or None, response text or None); a request
    without an answer within `timeout` seconds of being sent gets None.
    Also returns the loop's wall time."""
    deadline = time.monotonic() + 10
    socks = [connect(path, deadline) for _ in range(connections)]
    sel = selectors.DefaultSelector()
    readers, inflight = {}, {}
    results = [(None, None)] * len(payloads)
    nxt = 0

    def send(s):
        nonlocal nxt
        if nxt < len(payloads):
            inflight[s] = (nxt, time.perf_counter())
            s.sendall(frame(payloads[nxt]))
            nxt += 1

    start = time.perf_counter()
    for s in socks:
        s.setblocking(True)
        readers[s] = Reader()
        sel.register(s, selectors.EVENT_READ)
        send(s)
    try:
        while inflight:
            now = time.perf_counter()
            oldest = min(t for _, t in inflight.values())
            if now - oldest > timeout:
                break
            for k, _ in sel.select(timeout=max(0.0, timeout - (now - oldest))):
                s = k.fileobj
                data = s.recv(65536)
                done = time.perf_counter()
                if not data:
                    raise ConnectionError("daemon closed a connection")
                for text in readers[s].feed(data):
                    i, sent = inflight.pop(s)
                    results[i] = (done - sent, text)
                    send(s)
        wall = time.perf_counter() - start
    finally:
        sel.close()
        for s in socks:
            s.close()
    return results, wall

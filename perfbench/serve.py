"""The ``serve_mixed`` workload: mixed traffic against ``python -m repro.server``.

A closed loop of one client: it sends its next request only after the
previous one has completed.  A second client would only queue behind the
first: on the 2-vCPU host the server's worker and event loop and the
client already share the two cores, and with two clients the throughput
stayed the same while the p90 latency doubled and swung 15% between runs
(6% with one).  The mix (per request, drawn from the seed):

* 50% warm ``assemble`` on a hot mesh with a fresh ``velocity_seed``;
* 20% exact repeat of one of the client's recent requests (result cache);
* 24% ``assemble`` with a fresh body force (kernel record/compile on the
  request path);
* 4% two-scenario ``campaign`` (each builds its own pressure solver);
* 2% ``assemble`` on a mesh drawn from a pool larger than the server's
  8-entry mesh cache.

A campaign request takes twice as long as any other, so the campaign
share sets a cliff in the latency distribution.  At 7% campaigns and 3%
cold meshes the p90 sat 2-3% below it, and in two of ten runs read 38
and 52 ms instead of about 20; at 4% and 2% the p90 falls inside the
fresh-body-force requests, the set-up work on the request path this
workload is for.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from repro.server.client import CampaignClient
from repro.server.protocol import ProtocolError, sha256_hex

#: poll interval of the closed-loop client, well below the ~5 ms warm
#: service time (the client default of 20 ms would floor every latency)
POLL_S = 0.001
RECENT = 16          # a repeat re-sends one of the client's last RECENT requests
SERVER_WAIT_S = 60.0
#: client ids of the two fixed sequences sent before the closed loop: the
#: opening phase (exact counts) and the prefix after which the server's
#: peak RSS is read, so memory does not depend on how many requests the
#: timed window serves
OPENING_CLIENT = 2**31 - 1
PREFIX_CLIENT = 2**31 - 2
PREFIX_REQUESTS = 100


def sizes(tiny: bool) -> dict:
    """Hot meshes, the campaign mesh and the cold pool (>8 mesh-cache slots)."""
    if tiny:
        hot = [(3, 3, 3), (4, 3, 3)]
        pool = [(2 + i % 5, 2 + i // 5, 2) for i in range(10)]
        return {"hot": hot, "campaign": (3, 3, 3), "pool": pool}
    hot = [(8, 8, 8), (10, 8, 6), (6, 6, 6)]
    pool = [(5 + i % 4, 5 + i // 4, 4) for i in range(12)]
    return {"hot": hot, "campaign": (5, 5, 5), "pool": pool}


def _mesh(dims) -> dict:
    return {"nx": dims[0], "ny": dims[1], "nz": dims[2]}


class Traffic:
    """Seeded request generator of one client."""

    def __init__(self, seed: int, client: int, tiny: bool) -> None:
        self.rng = np.random.default_rng([seed, client])
        self.sizes = sizes(tiny)
        self.recent: List[dict] = []

    def _fresh_seed(self) -> int:
        return int(self.rng.integers(1, 2**31))

    def assemble(self, dims, body_force=(0.0, 0.0, 0.0)) -> dict:
        return {"kind": "assemble", "mesh": _mesh(dims),
                "scenarios": [{"body_force": list(body_force)}],
                "velocity_seed": self._fresh_seed()}

    def campaign(self) -> dict:
        return {"kind": "campaign", "mesh": _mesh(self.sizes["campaign"]),
                "scenarios": [{"body_force": [0.1, 0.0, 0.0]},
                              {"body_force": [0.0, 0.0, -0.1]}],
                "steps": 2, "dt": 1e-3, "velocity_seed": self._fresh_seed()}

    def fresh_force(self) -> dict:
        hot = self.sizes["hot"]
        force = (float(self.rng.uniform(-1.0, 1.0)), 0.0, 0.0)
        return self.assemble(hot[self.rng.integers(len(hot))], force)

    def next(self, r: Optional[float] = None) -> dict:
        """The next request; ``r`` in [0, 1) picks its kind (drawn if None)."""
        r = self.rng.random() if r is None else r
        hot = self.sizes["hot"]
        if r < 0.50:
            req = self.assemble(hot[self.rng.integers(len(hot))])
        elif r < 0.70 and self.recent:
            return dict(self.recent[self.rng.integers(len(self.recent))])
        elif r < 0.94:
            req = self.fresh_force()
        elif r < 0.98:
            req = self.campaign()
        else:
            pool = self.sizes["pool"]
            req = self.assemble(pool[self.rng.integers(len(pool))])
        self.recent = (self.recent + [req])[-RECENT:]
        return req

    def prefix(self) -> List[dict]:
        """The fixed-length sequence sent before the timed window: the mix
        in exact proportions, in seeded order."""
        kinds = self.rng.permutation((np.arange(PREFIX_REQUESTS) + 0.5) / PREFIX_REQUESTS)
        return [self.next(float(r)) for r in kinds]

    def count_phase(self) -> List[dict]:
        """The fixed opening sequence whose server counters must repeat."""
        hot, pool = self.sizes["hot"], self.sizes["pool"]
        reqs = [self.assemble(d) for d in hot]
        reqs += [self.fresh_force(), self.campaign(), self.assemble(pool[0])]
        return reqs + [dict(reqs[0]), self.assemble(hot[0])]


class Server:
    """One server subprocess; ``setup_s`` is spawn until ``/health`` answers."""

    def __init__(self, root: str, scratch: str, traced: bool) -> None:
        self.dump = os.path.join(scratch, "traced_server.json") if traced else None
        if traced:
            cmd = [sys.executable, os.path.join(root, "perfbench", "traced_server.py"),
                   self.dump, "--port", "0"]
        else:
            cmd = [sys.executable, "-m", "repro.server", "--port", "0"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), os.path.join(root, "perfbench")])
        self.log = open(os.path.join(scratch, "server.log"), "ab")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                                     stderr=self.log)
        try:
            line = self.proc.stdout.readline()
            port = int(json.loads(line)["listening"].rsplit(":", 1)[1])
            self.port = port
            CampaignClient(port=port, timeout=SERVER_WAIT_S).health()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def client(self) -> CampaignClient:
        return CampaignClient(port=self.port, timeout=SERVER_WAIT_S)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> Optional[dict]:
        """SIGTERM (graceful drain), wait, and return the traced dump."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=SERVER_WAIT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        if self.dump and os.path.exists(self.dump):
            with open(self.dump, encoding="utf-8") as fh:
                return json.load(fh)
        return None


def stat_counters(client: CampaignClient) -> Dict[str, float]:
    stats = client.stats()
    out = {name: int(data["value"]) for name, data in stats["metrics"].items()
           if data["kind"] == "counter"}
    hist = stats["metrics"].get("server.service_seconds")
    out["service_p50_s"] = hist["p50"] if hist else 0.0
    return out


class Record:
    """What one client saw: latencies, failures and served digests."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.failures: List[str] = []
        self.served: List[tuple] = []   # (request, sha256)


def send(client: CampaignClient, req: dict, rec: Record) -> None:
    t0 = time.perf_counter()
    try:
        resp = client.run(req, timeout=SERVER_WAIT_S, poll_s=POLL_S)
    except (ProtocolError, TimeoutError, OSError) as exc:
        rec.failures.append(f"{type(exc).__name__}: {exc}")
        return
    rec.latencies.append(time.perf_counter() - t0)
    result = resp["result"]
    if result.get("degraded") or result.get("mode") != "compiled":
        rec.failures.append(f"degraded to mode {result.get('mode')!r}")
    rec.served.append((req, result["sha256"]))


def closed_loop(server: Server, seed: int, seconds: float, tiny: bool) -> tuple:
    """Run the closed-loop client for ``seconds``; ``(record, wall)``."""
    record = Record()
    traffic, client = Traffic(seed, 0, tiny), server.client()
    t0 = time.perf_counter()
    deadline = t0 + seconds
    try:
        while time.perf_counter() < deadline:
            send(client, traffic.next(), record)
    except Exception as exc:
        record.failures.append(f"client stopped: {exc!r}")
    return record, time.perf_counter() - t0


def verify(records: List[Record]) -> List[str]:
    """Each distinct request answered with one digest, equal to the
    direct library call (``UnifiedAssembler`` / ``BatchCampaign``)."""
    from repro.core.unified import UnifiedAssembler
    from repro.fem import meshgen
    from repro.physics import AssemblyParams
    from repro.physics.fractional_step import BatchCampaign

    answers: Dict[str, set] = {}
    requests: Dict[str, dict] = {}
    for rec in records:
        for req, digest in rec.served:
            key = json.dumps(req, sort_keys=True)
            answers.setdefault(key, set()).add(digest)
            requests[key] = req
    problems = [f"{len(d)} different answers to {k}" for k, d in answers.items()
                if len(d) > 1]
    meshes = {}
    for key, req in sorted(requests.items()):
        dims = tuple(req["mesh"][k] for k in ("nx", "ny", "nz"))
        params = [AssemblyParams(body_force=tuple(s["body_force"]))
                  for s in req["scenarios"]]
        if req["kind"] == "assemble" and any(params[0].body_force):
            # one-off parameters: a throwaway mesh frees its plan's kernels
            mesh = meshgen.box_tet_mesh(*dims)
        else:
            if dims not in meshes:
                meshes[dims] = meshgen.box_tet_mesh(*dims)
            mesh = meshes[dims]
        velocity = 0.1 * np.random.default_rng(req["velocity_seed"]).standard_normal(
            (mesh.nnode, 3))
        if req["kind"] == "assemble":
            field = UnifiedAssembler(mesh, params[0], mode="compiled").assemble(
                "RSP", velocity)
        else:
            camp = BatchCampaign(mesh, params, variant="RSP", mode="compiled")
            camp.set_velocities(velocity)
            camp.run(req["steps"], dt=req["dt"])
            field = camp.velocities()
        direct = sha256_hex(np.ascontiguousarray(field, dtype=np.float64).tobytes())
        if direct not in answers[key]:
            problems.append(f"served digest differs from the direct call for {key}")
    return problems

"""The three workloads: inputs from the seed, timed operations, checks.

Every workload calls the public ``repro`` functions with their default
arguments and never passes ``kernel=``, so a change of a default (for
example the simulator's default kernel) is what gets measured.  Calls
into a layer go through the module attribute at call time (for example
``presets.standard_instance``), so the traced run's wrappers see them.

Each workload function takes a :class:`Context` and fills its
:class:`Recorder` with samples, operation counts and facts for the
per-layer metrics.  Output checks run after the timed operations.
"""

from __future__ import annotations

import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from checks import check_flow, check_midload, check_serve
from hostspeed import REFERENCE_S, HostSampler

clock = time.perf_counter
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Full-size parameters.  A run repeats its operation
#: ``round(seconds / nominal_op_s)`` times (at least once), so the amount
#: of work does not depend on the speed of the code under test.
FULL: Dict[str, dict] = {
    "midload_mesh16": {
        "size": 16,
        "pattern": "neighbor",
        "rate": 0.05,
        "segment_cycles": 1500,
        # Each segment runs in steps of this many cycles, timed one by
        # one (see ``run_steps``).
        "step_cycles": 25,
        "warmup": 300,
        "op_cost": 0.02,
        "host_interval": 0.05,
        "nominal_op_s": 12.5,
        "setup_repeats": 2,
    },
    "flow_synth36": {
        "cores": 36,
        "memories": 4,
        "max_core_mb_per_s": 2000.0,
        "nominal_op_s": 5.0,
        "op_cost": "mean",
        "host_interval": 0.05,
        "setup_repeats": 5,
    },
    "serve_mixed": {
        "submissions": 120,
        "new_every": 6,
        "repeat_lag": 12,
        "prewarm": 4,
        "size": 4,
        "cycles": 2000,
        "rates": (0.04, 0.05, 0.06),
        "patterns": ("uniform", "transpose", "neighbor", "shuffle",
                     "bit-complement"),
        "sessions": 4,
        "workers": 2,
        "reference_checks": 2,
        "setup_repeats": 5,
        "op_cost": 0.05,
        "host_interval": 0.05,
    },
}

#: Small versions of the same workloads for the self-test.
REDUCED: Dict[str, dict] = {
    "midload_mesh16": dict(FULL["midload_mesh16"], size=6,
                           segment_cycles=150, step_cycles=25, warmup=30,
                           setup_repeats=2),
    "flow_synth36": dict(FULL["flow_synth36"], cores=8, memories=2,
                         setup_repeats=1),
    "serve_mixed": dict(FULL["serve_mixed"], submissions=12, new_every=3,
                        repeat_lag=3, prewarm=2, cycles=500, setup_repeats=1),
}

WORKLOADS = tuple(FULL)


# ----------------------------------------------------------------------
# Run bookkeeping
# ----------------------------------------------------------------------
@dataclass
class Recorder:
    """What one run measured, attempted, failed and found wrong."""

    samples: Dict[str, List[float]] = field(
        default_factory=lambda: defaultdict(list)
    )
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    facts: Dict[str, Any] = field(default_factory=dict)

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}"[:500])


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    params: dict
    workdir: Path
    rec: Recorder = field(default_factory=Recorder)
    #: The sampler of ``sampling_host`` while one is running.
    host: Optional[HostSampler] = None

    def fresh_dir(self, stem: str) -> Path:
        """A new, empty directory under the run's work directory."""
        return Path(tempfile.mkdtemp(prefix=f"{stem}-", dir=self.workdir))

    def op_count(self) -> int:
        return max(1, round(self.seconds / self.params["nominal_op_s"]))


@contextmanager
def sampling_host(ctx: Context, key: str = "host_reference_s"):
    """Sample the host's speed (``hostspeed.py``) while the block runs.

    The reference times go to the ``key`` samples.  With
    ``host_interval`` 0 (traced runs) nothing is sampled.
    """
    interval = ctx.params["host_interval"]
    if not interval:
        yield
        return
    with HostSampler(interval) as host:
        ctx.host = host
        try:
            yield
        finally:
            ctx.host = None
    ctx.rec.samples[key].extend(host.samples)


@contextmanager
def timed_setup(ctx: Context):
    """Time the block as one ``setup_s`` sample, sampling the host."""
    with sampling_host(ctx, "host_setup_s"):
        start = clock()
        yield
        ctx.rec.samples["setup_s"].append(clock() - start - host_spent(ctx))


def host_spent(ctx: Context) -> float:
    """Seconds the running sampler has spent so far, to leave out of a
    time measured around it."""
    return ctx.host.spent if ctx.host else 0.0


def fresh_setups(ctx: Context, build: str, *args) -> None:
    """Time fresh interpreters that import the layer and run ``build``.

    Building a spec takes well under a millisecond once ``repro`` is
    imported; what a user of the flow waits for before the work starts
    is interpreter start and imports.
    The interpreters are independent of the run's own process, so this
    runs after the timed operations and the memory reading.
    """
    call = (f"w.{build}(w.Context({ctx.workload!r}, {ctx.seed}, "
            f"{ctx.seconds!r}, {ctx.params!r}, w.Path({str(ctx.workdir)!r})), "
            f"*{args!r})")
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); "
            f"import workloads as w; {call}")
    for _ in range(ctx.params["setup_repeats"]):
        with timed_setup(ctx):
            subprocess.run([sys.executable, "-c", code], env=python_env(),
                           check=True, capture_output=True, timeout=120)


def python_env() -> Dict[str, str]:
    """This environment with ``src/`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def op_cost(rec: Recorder, params: dict) -> float:
    """What one operation costs, in seconds, on a host of fixed speed.

    ``op_cost`` names a statistic: a quantile (short operations that are
    all alike: simulation steps, served submissions; a low quantile is
    their time while the host did not slow them) or ``"mean"`` (flows,
    a few per run that last seconds each).  The statistic of the
    operation times is scaled by ``REFERENCE_S`` over the same statistic
    of the reference times sampled while they ran (``hostspeed.py``).
    Without reference samples (traced runs) it is left unscaled.
    """
    how = params["op_cost"]

    def stat(values: List[float]) -> float:
        if how == "mean":
            return statistics.mean(values) if values else 0.0
        return quantile(values, how)

    value = stat(rec.samples["op_s"])
    host = rec.samples.get("host_reference_s")
    return value * REFERENCE_S / stat(host) if host else value


def setup_cost(rec: Recorder) -> float:
    """The median set-up time, scaled like ``op_cost`` by the median of
    the reference times sampled during the set-ups."""
    value = quantile(rec.samples["setup_s"], 0.5)
    host = rec.samples.get("host_setup_s")
    return value * REFERENCE_S / quantile(host, 0.5) if host else value


def quantile(values: List[float], q: float) -> float:
    """Linearly interpolated quantile (``q`` in [0, 1]) of ``values``."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


# ----------------------------------------------------------------------
# midload_mesh16: a long, sparse 16x16 run with a checkpoint halfway
# ----------------------------------------------------------------------
def midload_build(ctx: Context, kernel: Optional[str] = None):
    """Instance, simulator and traffic; ``kernel`` only for the self-test."""
    from repro.arch.packet import reset_packet_ids
    from repro.sim.simulator import NocSimulator
    from repro.sim.traffic import SyntheticTraffic
    from repro.topology import presets

    p = ctx.params
    reset_packet_ids()
    inst = presets.standard_instance("mesh", p["size"])
    extra = {} if kernel is None else {"kernel": kernel}
    sim = NocSimulator(inst.topology, inst.table,
                       vc_assignment=inst.vc_assignment,
                       warmup_cycles=p["warmup"], **extra)
    traffic = SyntheticTraffic(p["pattern"], p["rate"], 4, seed=ctx.seed)
    return sim, traffic


def run_steps(ctx: Context, sim, traffic, cycles: int,
              drain: bool = False) -> float:
    """Run ``cycles`` cycles in timed steps, then drain if asked.

    Each full step of ``step_cycles`` is one ``op_s`` sample; the drain
    is a ``drain_s`` sample.  Returns the time spent simulating.
    """
    step = ctx.params["step_cycles"]
    spent = 0.0
    done = 0
    with sampling_host(ctx):
        while done < cycles:
            n = min(step, cycles - done)
            start = clock()
            sampled = host_spent(ctx)
            sim.run(n, traffic)
            took = clock() - start - (host_spent(ctx) - sampled)
            if n == step:
                ctx.rec.samples["op_s"].append(took)
            spent += took
            done += n
    if drain:
        start = clock()
        sim.run(0, traffic, drain=True)
        took = clock() - start
        ctx.rec.samples["drain_s"].append(took)
        spent += took
    return spent


def midload_op(ctx: Context, sim, traffic):
    """Run, checkpoint, restore, run on; returns the final (sim, traffic).

    A failed checkpoint save or restore is a failed operation, and the
    run continues on the original simulator.
    """
    from repro.resilience import checkpoint

    rec = ctx.rec
    cycles = ctx.params["segment_cycles"]
    rec.attempted += 1  # the simulation
    try:
        spent = run_steps(ctx, sim, traffic, cycles)
    except Exception as exc:
        rec.fail("simulate", exc)
        return None
    rec.attempted += 1  # checkpoint save
    capsule = None
    start = clock()
    try:
        capsule = checkpoint.snapshot_simulator(sim, traffic)
    except Exception as exc:  # RecursionError on large meshes, for one
        rec.fail("checkpoint save", exc)
    rec.facts["ckpt_save_s"] = clock() - start
    rec.facts["ckpt_bytes"] = 0 if capsule is None else len(capsule)
    rec.facts["ckpt_failed"] = int(capsule is None)
    if capsule is not None:
        rec.attempted += 1  # checkpoint restore
        start = clock()
        try:
            sim, traffic = checkpoint.restore_simulator(capsule)
        except Exception as exc:
            rec.fail("checkpoint restore", exc)
            rec.facts["ckpt_failed"] = 1
        rec.facts["ckpt_restore_s"] = clock() - start
    del capsule
    try:
        spent += run_steps(ctx, sim, traffic, cycles, drain=True)
    except Exception as exc:
        rec.fail("simulate", exc)
        return None
    rec.samples["sim_s"].append(spent)
    rec.samples["sim_cycles_per_s"].append(sim.cycle / spent)
    return sim, traffic


def midload(ctx: Context) -> dict:
    """Build and simulate ``op_count`` times; check each right away.

    Every build is a ``setup_s`` sample (at least ``setup_repeats``).  A
    simulation is checked, outside the timed steps, and let go before
    the next build: a live finished simulator would slow the next one's
    garbage collection.
    """
    rec = ctx.rec
    sims = ctx.op_count()
    for i in range(max(sims, ctx.params["setup_repeats"])):
        with timed_setup(ctx):
            sim, traffic = midload_build(ctx)
        if i < sims:
            final = midload_op(ctx, sim, traffic)
            if final is not None:
                rec.problems.extend(check_midload(*final))
            final = None
        sim = traffic = None
    return {}


# ----------------------------------------------------------------------
# flow_synth36: the Fig. 6 tool flow
# ----------------------------------------------------------------------
def _soc(ctx: Context, soc_seed: int):
    from repro.apps.workloads import synthetic_soc

    p = ctx.params
    return synthetic_soc(p["cores"], num_memories=p["memories"], seed=soc_seed)


def _peak_core_mb_per_s(workload) -> float:
    """The most any one core sends, or receives, in MB/s."""
    sent: Dict[str, float] = defaultdict(float)
    received: Dict[str, float] = defaultdict(float)
    for f in workload.flows:
        sent[f.source] += f.mb_per_s
        received[f.destination] += f.mb_per_s
    return max(max(sent.values()), max(received.values()))


def flow_seeds(ctx: Context) -> List[int]:
    """SoC seeds of the run's flows: the run seed, then seeds drawn from it.

    A SoC whose busiest core moves more than ``max_core_mb_per_s`` is
    skipped: no operating point of the default sweep carries it, so the
    flow finds no feasible design and raises instead of doing its work.
    """
    rng = random.Random(f"flow-{ctx.seed}")
    seeds: List[int] = []
    candidate = ctx.seed
    while len(seeds) < ctx.op_count():
        if _peak_core_mb_per_s(_soc(ctx, candidate)) <= ctx.params["max_core_mb_per_s"]:
            seeds.append(candidate)
        candidate = rng.randrange(1, 2**31)
    return seeds


def flow_build(ctx: Context, soc_seed: int):
    from repro.core.flow import NocDesignFlow
    from repro.core.spec import CommunicationSpec

    spec = CommunicationSpec.from_workload(_soc(ctx, soc_seed))
    return spec, NocDesignFlow(spec)


def flow(ctx: Context) -> dict:
    """The flows of the run, with the host's speed sampled alongside.

    A flow's ``op_s`` sample leaves out the time the sampler took.
    """
    rec = ctx.rec
    seeds = flow_seeds(ctx)
    results = []
    for soc_seed in seeds:
        spec, design_flow = flow_build(ctx, soc_seed)
        rec.attempted += 1
        try:
            with sampling_host(ctx):
                start = clock()
                result = design_flow.run()
                took = clock() - start - host_spent(ctx)
        except Exception as exc:
            rec.fail("flow", exc)
            continue
        rec.samples["op_s"].append(took)
        results.append((spec, result))
    rec.facts["design_points"] = sum(
        len(r.sweep.points) + len(r.sweep.baselines) for _, r in results)
    rec.facts["front_size"] = sum(len(r.sweep.front) for _, r in results)
    return {"results": results}


def flow_setup(ctx: Context) -> None:
    fresh_setups(ctx, "flow_build", flow_seeds(ctx)[0])


def flow_check(ctx: Context, out: dict) -> None:
    for spec, result in out["results"]:
        ctx.rec.problems.extend(check_flow(spec, result))


# ----------------------------------------------------------------------
# serve_mixed: an open-loop client against `repro serve`
# ----------------------------------------------------------------------
class Server:
    """A ``repro serve`` subprocess on a free port with a fresh cache.

    With ``dump`` the server runs under ``serve_traced.py``, which wraps
    the server's own lab calls and writes their totals to ``dump`` when
    the server stops.
    """

    def __init__(self, ctx: Context, dump: Optional[Path] = None):
        self.cache_dir = ctx.fresh_dir("serve-cache")
        self.log_path = self.cache_dir.with_suffix(".log")
        argv = ["serve", "--port", "0",
                "--workers", str(ctx.params["workers"]),
                "--worker-mode", "process",
                "--cache-dir", str(self.cache_dir)]
        if dump is None:
            cmd = [sys.executable, "-m", "repro", *argv]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), str(dump),
                   *argv]
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self._log, text=True,
                                     env=python_env())
        self.port = None

    def wait_ready(self, timeout: float = 60.0):
        from repro.serve import ServeClient

        deadline = time.monotonic() + timeout
        line = ""
        while "listening on" not in line:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, deadline - time.monotonic()))
            if not ready:
                raise TimeoutError("server did not start")
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"server exited: {self.log_tail()}")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        probe = ServeClient("127.0.0.1", self.port, timeout=5.0)
        while True:
            try:
                probe.health()
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.005)

    def log_tail(self) -> str:
        self._log.flush()
        return self.log_path.read_text()[-400:]

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self._log.close()


def serve_schedule(ctx: Context):
    """The specs sent before the open loop, and those it sends, in order.

    A few new specs are computed before the loop starts, so it can repeat
    them from its first second.  In the loop, each block of
    ``new_every`` submissions sends one new spec at a seeded position and
    repeats, at the others, a seeded pick among the specs first sent at
    least ``repeat_lag`` submissions earlier.  The cold jobs are thus
    spread evenly over the run and their number does not depend on the
    seed, which keeps the median among the cache hits and the 90th
    percentile among the cold jobs.  A repeat is computed a second time
    (there is no coalescing) only when its first copy has waited or run
    for longer than the lag: that is when the workers fall behind.
    """
    p = ctx.params
    rng = random.Random(f"serve-{ctx.seed}")
    seen = set()

    def new_spec() -> dict:
        while True:
            spec = {
                "kind": "load_point",
                "params": {"topology": "mesh", "size": p["size"],
                           "rate": rng.choice(p["rates"]),
                           "pattern": rng.choice(p["patterns"]),
                           "cycles": p["cycles"]},
                "seed": rng.randrange(1, 10_000),
            }
            key = json.dumps(spec, sort_keys=True)
            if key not in seen:
                seen.add(key)
                return spec

    prewarm = [new_spec() for _ in range(p["prewarm"])]
    eligible = list(prewarm)
    maturing: List[tuple] = []  # (first index, spec), oldest first
    schedule = []
    fresh_at = 0
    for i in range(p["submissions"]):
        while maturing and maturing[0][0] <= i - p["repeat_lag"]:
            eligible.append(maturing.pop(0)[1])
        if i % p["new_every"] == 0:
            fresh_at = i + rng.randrange(p["new_every"])
        if i == fresh_at:
            spec = new_spec()
            maturing.append((i, spec))
        else:
            spec = eligible[rng.randrange(len(eligible))]
        schedule.append(spec)
    return prewarm, schedule


def drive(ctx: Context, server: Server, schedule: List[dict],
          interval: float) -> List[dict]:
    """Send ``schedule`` open-loop, one every ``interval``; wait for all.

    Each submission is due at ``start + i * interval`` and is timed from
    then.  A cache hit ends when its POST returns; a computed job ends
    ``timing.total_s`` (server-side, created to finished) after its POST
    was sent, so polling does not set the resolution.
    """
    from repro.serve import ServeClient, ServeError

    p = ctx.params
    clients = [ServeClient("127.0.0.1", server.port, session=f"user-{i}",
                           timeout=30.0)
               for i in range(p["sessions"])]
    records = []
    start = clock()
    for i, spec in enumerate(schedule):
        due = start + i * interval
        pause = due - clock()
        if pause > 0:
            time.sleep(pause)
        client = clients[i % len(clients)]
        sent = clock()
        sampled = host_spent(ctx)
        rec = {"spec": spec, "lag_s": sent - due, "client": client}
        try:
            doc = client.submit(spec["kind"], spec["params"], seed=spec["seed"])
        except (ServeError, OSError) as exc:
            rec.update(state="rejected" if getattr(exc, "status", 0) == 429
                       else "error", error=str(exc)[:200])
            records.append(rec)
            continue
        back = clock()
        rec.update(rtt_s=back - sent, doc=doc, cached=bool(doc.get("cached")))
        if doc["state"] == "done" and doc.get("cached"):
            rec.update(state="done",
                       latency_s=back - due - (host_spent(ctx) - sampled),
                       result=doc.get("result"))
        records.append(rec)
    for rec in records:
        doc = rec.get("doc")
        if doc is None or rec.get("state") == "done":
            continue
        try:
            final = rec["client"].wait(doc["id"], timeout=60.0, poll_s=0.02)
        except (ServeError, OSError, TimeoutError) as exc:
            rec.update(state="timeout", error=str(exc)[:200])
            continue
        timing = final.get("timing", {})
        rec.update(state=final["state"], result=final.get("result"),
                   queue_wait_s=timing.get("queue_wait_s"),
                   run_s=timing.get("run_s"))
        if "total_s" in timing:
            rec["latency_s"] = rec["lag_s"] + timing["total_s"]
    for rec in records:
        rec.pop("client", None)
    return records


def serve_round(ctx: Context, server: Server) -> dict:
    """One open-loop round plus the server's own counters."""
    from repro.serve import ServeClient

    rec = ctx.rec
    prewarm, schedule = serve_schedule(ctx)
    records = drive(ctx, server, prewarm, 0.0)
    for r in records:
        r["prewarm"] = True
    with sampling_host(ctx):
        records += drive(ctx, server, schedule, ctx.seconds / len(schedule))
    stats = ServeClient("127.0.0.1", server.port, timeout=10.0).stats()
    for r in records:
        rec.attempted += 1
        if r.get("state") != "done":
            rec.failed += 1
            rec.errors.append(f"submission {r.get('state')}: "
                              f"{r.get('error', '')}"[:300])
    return {"records": records, "stats": stats}


def serve_metrics(ctx: Context, out: dict) -> None:
    """Latency samples and serve-layer facts from one round."""
    rec = ctx.rec
    computed = [r for r in out["records"] if "doc" in r and not r.get("cached")]
    records = [r for r in out["records"] if not r.get("prewarm")]
    done = [r for r in records if "latency_s" in r]
    rec.samples["op_s"].extend(r["latency_s"] for r in done)
    hits = [r["latency_s"] for r in done if r.get("cached")]
    cold = [r for r in done if not r.get("cached")]
    stats = out["stats"]
    dispatches = stats["workers"]["dispatched"]
    distinct = {json.dumps(r["spec"], sort_keys=True) for r in computed}
    rec.facts.update({
        "hit_p50_s": statistics.median(hits) if hits else 0.0,
        "cold_p50_s": statistics.median([r["latency_s"] for r in cold])
        if cold else 0.0,
        "submit_rtt_p50_s": statistics.median(
            [r["rtt_s"] for r in records if "rtt_s" in r] or [0.0]),
        "queue_wait_p50_s": quantile(
            [r["queue_wait_s"] for r in cold if r.get("queue_wait_s") is not None], 0.5),
        "queue_wait_p90_s": quantile(
            [r["queue_wait_s"] for r in cold if r.get("queue_wait_s") is not None], 0.9),
        "run_p50_s": quantile(
            [r["run_s"] for r in cold if r.get("run_s") is not None], 0.5),
        "generator_lag_p90_s": quantile([r["lag_s"] for r in records], 0.9),
        "dispatches": dispatches,
        "useful_dispatch_ratio": len(distinct) / dispatches if dispatches else 0.0,
        "retries": stats["supervision"]["retries"],
        "rejected": sum(1 for r in records if r.get("state") == "rejected"),
        "hits": len(hits),
        "cold": len(cold),
        "warm_hit_ratio": len(hits) / len(records) if records else 0.0,
    })


def serve_reference(ctx: Context, records: List[dict]) -> Dict[str, dict]:
    """Two seeded specs of the round, computed in-process."""
    from repro.arch.packet import reset_packet_ids
    from repro.lab import Job, run_job

    specs = sorted({json.dumps(r["spec"], sort_keys=True) for r in records})
    rng = random.Random(f"serve-check-{ctx.seed}")
    chosen = rng.sample(specs, min(ctx.params["reference_checks"], len(specs)))
    out = {}
    for key in chosen:
        spec = json.loads(key)
        reset_packet_ids()
        out[key] = run_job(Job(kind=spec["kind"], params=spec["params"],
                               seed=spec["seed"]))
    return out


def serve(ctx: Context, dump: Optional[Path] = None) -> dict:
    servers: List[Server] = []

    def build():
        server = Server(ctx, dump)
        servers.append(server)
        server.wait_ready()
        return server

    try:
        for _ in range(ctx.params["setup_repeats"] - 1):
            with timed_setup(ctx):
                build()
            servers.pop().stop()
        with timed_setup(ctx):
            server = build()
        out = serve_round(ctx, server)
    finally:
        for server in servers:
            server.stop()
    serve_metrics(ctx, out)
    return out


def serve_check(ctx: Context, out: dict) -> None:
    reference = serve_reference(ctx, out["records"])
    ctx.rec.problems.extend(check_serve(out["records"], reference))

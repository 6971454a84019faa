"""Outside-in benchmark of the ``repro serve`` daemon.

Usage (from the checkout root)::

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1] [--smoke] [--repeat K] [--out FILE]

One run of one workload: install (or reuse) the trust universe, start the
stock daemon on a fresh copy of its root ``SETUPS`` times (``setup_s`` is the
median time from spawn to the first correct decision; the last daemon is
kept), warm up, then time an open loop at the workload's fixed rate and a
closed loop of 2 connections x 8 in flight, and finish with oracle probes.
Every reply is checked against the expected verdict.  The last stdout line
is the result JSON: end-to-end metrics untraced, per-layer metrics with
``--trace 1``.  Without ``--workload`` every workload runs in turn.  Exit
status is 0 only when every reply was correct.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import re
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from layers import CATALOGUE, layer_metrics, percentile
from loadgen import (
    Connection,
    Item,
    Runner,
    Stats,
    check_reply,
    frame,
    now_ns,
)

BENCH = Path(__file__).resolve().parent
CHECKOUT = BENCH.parent

SETUPS = 3
PROBES = 10
DEPTH = 8             # in-flight items per connection in closed loops
WARM, OPEN, CLOSED = 0.2, 0.6, 0.4   # phase lengths as shares of --seconds

END_TO_END = [("latency_p50_ms", "ms"), ("rss_mb", "MB"), ("setup_s", "s")]


class BenchError(Exception):
    """The daemon misbehaved in a way that makes the run meaningless."""


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="outside-in benchmark of the repro serve daemon")
    parser.add_argument("--workload", default=None,
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default 8, smoke 2)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="100-user universe, one set-up, short phases")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", default=None,
                        help="also write every run's record to this JSON")
    return parser.parse_args(argv)


# -- the daemon process --------------------------------------------------------

class Daemon:
    """One stock daemon process started through the launch shim."""

    def __init__(self, proc: asyncio.subprocess.Process, port: int) -> None:
        self.proc = proc
        self.port = port

    @classmethod
    async def spawn(cls, root: Path, trace_out: Path | None) -> "Daemon":
        command = [sys.executable, str(BENCH / "daemon.py"),
                   "--root", str(root)]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        proc = await asyncio.create_subprocess_exec(
            *command, stdout=asyncio.subprocess.PIPE,
            env={**os.environ, "PYTHONUNBUFFERED": "1"})
        daemon = cls(proc, 0)
        try:
            line = await asyncio.wait_for(proc.stdout.readline(), 120)
        except asyncio.TimeoutError:
            line = b""
        match = re.search(rb"listening on [^:]+:(\d+)", line)
        if match is None:
            await daemon.kill()
            raise BenchError(f"daemon did not start: {line!r}")
        daemon.port = int(match.group(1))
        return daemon

    async def stop(self, conns: list) -> None:
        """Graceful drain over the wire, then reap the process."""
        if conns:
            try:
                await conns[0].call("shutdown", {"reason": "bench"},
                                    "shutdown", timeout=30)
            except (asyncio.TimeoutError, ConnectionError):
                pass
        for conn in conns:
            await conn.close()
        conns.clear()
        try:
            await asyncio.wait_for(self.proc.communicate(), 60)
        except asyncio.TimeoutError:
            await self.kill()

    async def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
        await self.proc.wait()

    def cpu_ns(self) -> int:
        text = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = text[text.rindex(")") + 2:].split()
        ticks = int(fields[11]) + int(fields[12])
        return ticks * 1_000_000_000 // os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text() \
                .splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in /proc status")


async def install(root: Path, policies: list[str],
                  credentials: list[str]) -> None:
    """Install the universe into an empty root through the stock daemon."""
    root.mkdir(parents=True)
    daemon = await Daemon.spawn(root, None)
    conns = [await Connection.open(daemon.port)]
    try:
        stats = Stats()
        runner = Runner(stats)
        calls = [("add_policy", text) for text in policies]
        calls += [("add_credential", text) for text in credentials]
        for n, (method, text) in enumerate(calls):
            request_id = f"install-{n}"
            runner.start(Item("install", [
                (request_id, frame(request_id, method, {"text": text}),
                 {"added": True})]), conns[0], now_ns())
            if n % 256 == 255:
                await runner.drain(60)
        await runner.drain(60)
        if stats.failed:
            raise BenchError(f"universe install failed: {stats.errors}")
        await daemon.stop(conns)
    finally:
        for conn in conns:
            await conn.close()
        await daemon.kill()


# -- one run -------------------------------------------------------------------

async def measure(daemon: Daemon, conns: list, traffic, workload,
                  seconds: float, trace: bool, probes: int) -> dict:
    """Warm up, run the timed phases and the probes on a started daemon."""
    # Every frame is built and encoded before the warm-up starts.  The
    # warm-up is the head of the open loop, except for keycom_admin, whose
    # installs start with the timed window: its read path warms first.
    warm_seconds = WARM * seconds
    if workload.keycom:
        open_seconds, skip = seconds, 0.0
        warm_schedule = traffic.open_schedule(workload, warm_seconds, 1)
        schedule = traffic.open_schedule(workload, open_seconds, 1)
        installs = [traffic.keycom() for _ in range(int(25 * seconds))]
    else:
        open_seconds, skip = OPEN * seconds, warm_seconds
        schedule = traffic.open_schedule(workload, skip + open_seconds, 2)
        closed_items = [traffic.mixed(workload, k) for k in
                        range(int(workload.closed_cap * CLOSED * seconds))]
    probe_items = traffic.probes(probes)
    prewarm_items = traffic.prewarm() if workload.read == "hot" else []

    warm = Runner(Stats())
    await warm.closed_loop(prewarm_items, conns, DEPTH, 120.0)
    await warm.drain(60)
    if workload.keycom:
        await warm.open_loop(warm_schedule, [conns[1]])
        await warm.drain(60)
    opened, closed = Runner(Stats(), record_rtt=trace), Runner(Stats())
    status = []
    if trace:
        status.append((await conns[0].call(
            "status", {}, "status-before"))["result"])
    cpu0, gen0 = daemon.cpu_ns(), time.process_time_ns()
    gc.collect()
    gc.freeze()
    gc.disable()
    t0 = now_ns()
    try:
        if workload.keycom:
            install_loop = asyncio.create_task(
                closed.closed_loop(installs, [conns[0]], 1, seconds))
            open_t0, lag = await opened.open_loop(schedule, [conns[1]])
            await install_loop
            await opened.drain(60)
            await closed.drain(120)
            rss = daemon.peak_rss_mb()
        else:
            open_t0, lag = await opened.open_loop(schedule, conns)
            await opened.drain(60)
            rss = daemon.peak_rss_mb()
            closed_window = await closed.closed_loop(
                closed_items, conns, DEPTH, CLOSED * seconds)
            await closed.drain(60)
        t1 = now_ns()
    finally:
        gc.enable()
        gc.unfreeze()
    daemon_cpu = daemon.cpu_ns() - cpu0
    generator_share = (time.process_time_ns() - gen0) / max(1, t1 - t0)

    checks = Runner(Stats())
    for item in probe_items:
        checks.start(item, conns[0], now_ns())
    await checks.drain(120)
    if trace:
        status.append((await conns[0].call(
            "status", {}, "status-after"))["result"])

    runners = (warm, opened, closed, checks)
    measured_from = open_t0 + int(skip * 1e9)
    reads = [latency for due, latency
             in opened.stats.latencies.get("read", [])
             if due >= measured_from]
    if workload.keycom:
        installs_done = closed.stats.latencies.get("keycom", [])
        capacity = 1e9 / percentile([v for _d, v in installs_done], 0.5)
    else:
        start, end = closed_window
        capacity = sum(start <= at <= end for at in closed.stats.completions) \
            * 1e9 / (end - start)
    return {
        "attempted": sum(r.stats.attempted for r in runners),
        "failed": sum(r.stats.failed for r in runners),
        "errors": [e for r in runners for e in r.stats.errors][:5],
        "latency_p50_ms": percentile(reads, 0.5) / 1e6,
        "rss_mb": rss,
        "report": {
            "capacity_rps": capacity,
            "latency_p90_ms": percentile(reads, 0.9) / 1e6,
            "latency_p99_ms": percentile(reads, 0.99) / 1e6,
            "latency_samples": len(reads),
            "gen_lag_ms_max": lag / 1e6,
            **{f"{kind}_p50_ms": percentile([v for _d, v in values],
                                            0.5) / 1e6
               for kind, values in (opened.stats.latencies
                                    | closed.stats.latencies).items()
               if kind in ("renew", "keycom")},
            "probes": len(probe_items),
        },
        "window": (t0, t1),
        "rtt": opened.stats.rtt,
        "status": status,
        "daemon_cpu_ns": daemon_cpu,
        "generator_share": generator_share,
    }


async def run_workload(universe, workload, seed: int, seconds: float,
                       trace: bool, setups: int, probes: int) -> dict:
    """One run: set-ups, timed phases, probes, shutdown."""
    from workloads import Traffic
    traffic = Traffic(universe, seed)
    scratch = CHECKOUT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    trace_out = tmp / "trace.json"
    daemon = None
    conns: list = []
    try:
        setup_times = []
        for index in range(setups):
            last = index == setups - 1
            root = universe.copy_root(tmp)
            first = traffic.hot()
            request_id, data, expected = first.calls[0]
            started = time.perf_counter()
            daemon = await Daemon.spawn(root, trace_out if trace and last
                                        else None)
            conns.append(await Connection.open(daemon.port))
            params = json.loads(data)["params"]
            reply = await conns[0].call("mediate", params, request_id,
                                        timeout=120)
            setup_times.append(time.perf_counter() - started)
            problem = check_reply(reply, expected)
            if problem is not None:
                raise BenchError(f"first decision wrong: {problem}")
            if not last:
                await daemon.stop(conns)
                daemon = None
                shutil.rmtree(root)
        conns.append(await Connection.open(daemon.port))
        run = await measure(daemon, conns, traffic, workload, seconds, trace,
                            probes)
        await daemon.stop(conns)
        daemon = None
        if trace:
            metrics = layer_metrics(json.loads(trace_out.read_text()),
                                    run["window"], run["rtt"],
                                    tuple(run["status"]),
                                    run["daemon_cpu_ns"],
                                    run["generator_share"])
        else:
            metrics = {"latency_p50_ms": run["latency_p50_ms"],
                       "rss_mb": run["rss_mb"],
                       "setup_s": statistics.median(setup_times)}
        run["report"]["setup_s_runs"] = setup_times
        return {"metrics": metrics, "attempted": run["attempted"],
                "failed": run["failed"], "errors": run["errors"],
                "report": run["report"]}
    finally:
        for conn in conns:
            await conn.close()
        if daemon is not None:
            await daemon.kill()
        shutil.rmtree(tmp, ignore_errors=True)


def result_line(run: dict, trace: bool) -> dict:
    """The result object printed as the last line, with units."""
    units = (dict((n, u) for n, u, _b in CATALOGUE) if trace
             else dict(END_TO_END))
    return {"correct": run["failed"] == 0,
            "attempted": run["attempted"], "failed": run["failed"],
            "metrics": {name: {"value": run["metrics"][name], "unit": unit}
                        for name, unit in units.items()}}


def host_info() -> dict:
    model = ""
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {"cpu": model, "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "kernel": platform.release()}


def main() -> int:
    args = parse_args(sys.argv[1:])
    if not (CHECKOUT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {CHECKOUT / 'src'}",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != str(args.seed):
        # Pin string hashing for this process and the daemon it starts.
        os.environ["PYTHONHASHSEED"] = str(args.seed)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.path.insert(0, str(CHECKOUT / "src"))
    import universe as universe_module
    from workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    scale = universe_module.SMOKE if args.smoke else universe_module.FULL
    seconds = args.seconds or (2.0 if args.smoke else 8.0)
    names = [args.workload] if args.workload else list(WORKLOADS)
    trace = bool(args.trace)

    def install_sync(root, policies, credentials):
        asyncio.run(install(root, policies, credentials))

    universe = universe_module.load_or_install(CHECKOUT, scale, install_sync)
    records = []
    for _ in range(args.repeat):
        for name in names:
            run = asyncio.run(run_workload(
                universe, WORKLOADS[name], args.seed, seconds, trace,
                setups=1 if args.smoke else SETUPS,
                probes=4 if args.smoke else PROBES))
            for error in run["errors"]:
                print(f"{name}: {error}", file=sys.stderr)
            line = result_line(run, trace)
            records.append({"workload": name, "seed": args.seed,
                            "seconds": seconds, "trace": trace,
                            "result": line, "report": run["report"]})
            print(json.dumps({"workload": name, "report": run["report"]}))
            if not args.workload:
                print(json.dumps({"workload": name, **line}))
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"host": host_info(), "runs": records}, indent=1) + "\n")
    if args.workload:
        print(json.dumps(records[-1]["result"]))
    else:
        print(json.dumps({r["workload"]: r["result"] for r in records}))
    return 0 if all(r["result"]["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""End-to-end benchmark of the dmdp simulator (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --steadiness N [--seconds S] [--workload W ...]
    python3 perfbench/run.py --regen-reference

Builds `dmdp` and the in-process probe from source, drives one workload
through the program's public entry points, checks every output, prints
each metric with its unit and, as the last line of stdout, one JSON
object: {"correct", "attempted", "failed", "metrics"}. Exits non-zero if
any operation failed.
"""

import argparse
import ctypes
import json
import math
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402

REFERENCE = HERE / "reference.json"
WORKLOADS = ("matrix_full", "sampled_huge", "served_mix")

# End-to-end metrics (tracing off): name -> (unit, better, bound).
# Host-wide memory-system phases lasting minutes move every host timing
# by up to 1.3x between runs, so timing bounds are the widest allowed.
# The daemon's peak memory moves by up to 10% with the malloc arenas
# its threads happen to get; campaign memory holds within 2%.
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "sim_mips": ("Minsn/s", "higher", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.2),
    "submit_p50_s": ("s", "lower", 0.25),
    "submit_tail_s": ("s", "lower", 0.25),
}

# Per-layer metrics (traced run): name -> unit. Layers a workload
# bypasses report 0.
PER_LAYER = {
    "workloads.build_s": "s",
    "core.plan.build_s": "s",
    "harness.jobs_s": "s",
    "core.pipeline.busy_s": "s",
    "core.pipeline.cycles": "count",
    "core.pipeline.ns_per_cycle": "ns",
    "core.pipeline.job_s_p50": "s",
    "core.pipeline.job_s_max": "s",
    "harness.pool.idle_s": "s",
    "harness.artifact.write_s": "s",
    "harness.artifact.parse_s": "s",
    "harness.artifact.bytes": "bytes",
    "isa.emu.profile_s": "s",
    "isa.emu.capture_s": "s",
    "isa.emu.insns": "count",
    "isa.emu.mips": "Minsn/s",
    "sample.cluster_s": "s",
    "sample.intervals": "count",
    "sample.reps": "count",
    "sample.ckpt_bytes": "bytes",
    "sample.ipc_err_max_pct": "%",
    "core.interval.busy_s": "s",
    "core.interval.detail_insns": "count",
    "core.interval.warmup_share": "ratio",
    "core.batch.busy_s": "s",
    "core.batch.lanes": "count",
    "core.batch.derived_share": "ratio",
    "core.batch.ff_share": "ratio",
    "server.client.connect_s_p50": "s",
    "server.daemon.parse_us_p50": "us",
    "server.daemon.queue_wait_s_p50": "s",
    "server.daemon.submit_wall_s_p50": "s",
    "server.daemon.store_hit_share": "ratio",
    "server.worker.placement_us_p50": "us",
    "server.worker.dispatches": "count",
    "server.worker.requeues": "count",
    "server.store.get_us_p50": "us",
    "server.store.put_us_p50": "us",
    "server.store.writes": "count",
    "server.store.bytes": "bytes",
    "trace.overhead_s": "s",
}

# Set-up is a sub-second phase, so a campaign run repeats it this many
# times before each campaign and reports the median of all of them.
SETUP_REPEATS = 10

# served_mix shape: sizing sweeps of 9 variants (3 ROB sizes x 3 store
# buffer sizes; the PRF follows the ROB) over 21 kernels x 4 models at
# Small scale; warm re-submits; solo re-simulations of served rows.
SWEEP_GRID = [(sb, rob) for rob in (128, 256, 384) for sb in (8, 16, 32)]
WARM_SUBMITS = 200
RESIM_ROWS = 6
SERVED_LAUNCHES = 15

# Seconds of measurement one cold sweep stands for: a run submits
# max(2, ceil(seconds / COLD_SWEEP_SECONDS)) sweeps of 5-8 s each;
# sizing them by more than their own time keeps a traced run (two
# served passes plus a local replay) inside RUN_BUDGET.
COLD_SWEEP_SECONDS = 9

# Per-operation deadlines, seconds. No operation outlives the run's own
# budget either, so a run ends within RUN_BUDGET seconds of its build.
CAMPAIGN_DEADLINE = 90
SETUP_DEADLINE = 10
COLD_DEADLINE = 60
WARM_DEADLINE = 10
LOADGEN_DEADLINE = 150
SHUTDOWN_DEADLINE = 15
RUN_BUDGET = 150

# A sampled_huge run fails if its worst-row IPC error exceeds the
# reference's recorded worst error by more than this share.
ACCURACY_SLACK = 0.10


class BenchError(Exception):
    """A named error that stops the run without a result."""


class OutOfTime(Exception):
    """The run's budget is spent; the operation was not started."""


_run_end = math.inf


def start_budget():
    global _run_end
    _run_end = time.monotonic() + RUN_BUDGET


def allow(deadline):
    """`deadline`, cut to what is left of the run's budget."""
    left = _run_end - time.monotonic()
    if left < 1:
        raise OutOfTime(f"run budget of {RUN_BUDGET}s spent")
    return min(deadline, left)


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, error=None):
        self.attempted += 1
        if error:
            self.fail(error)

    def fail(self, error):
        self.failed += 1
        if len(self.errors) < 12:
            self.errors.append(error)

    def absorb(self, attempted, failed, errors):
        self.attempted += attempted
        self.failed += failed
        self.errors.extend(errors[: max(0, 12 - len(self.errors))])


# ---------------------------------------------------------------- build


def target_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build():
    """Builds `dmdp` and the probe (a no-op when up to date); returns
    their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "dmdp-bench", "--bin", "dmdp"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         str(HERE / "probe" / "Cargo.toml")],
    ):
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = target_dir() / "release"
    return release / "dmdp", release / "dmdp-perfprobe"


# ------------------------------------------------------------ processes


def become_subreaper():
    """Orphaned grandchildren (daemon workers) are re-parented to this
    process, so cleanup can find and reap every one of them."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def children_of(pid):
    kids = []
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/children") as f:
                kids += [int(k) for k in f.read().split()]
    except OSError:
        pass
    return kids


def reap_all():
    """Kills and reaps every remaining descendant."""
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        for pid in children_of(os.getpid()):
            for victim in children_of(pid) + [pid]:
                try:
                    os.kill(victim, signal.SIGKILL)
                except OSError:
                    pass
        try:
            while os.waitpid(-1, os.WNOHANG)[0] != 0:
                pass
        except ChildProcessError:
            return
        time.sleep(0.01)


def run_timed(argv, deadline, stderr_path=None):
    """Runs argv to completion. Returns (wall_s, exit_code, maxrss_mib,
    timed_out); a run past `deadline` seconds is killed."""
    err = open(stderr_path, "w") if stderr_path else subprocess.DEVNULL
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
    expired = threading.Event()

    def kill():
        expired.set()
        proc.kill()

    timer = threading.Timer(allow(deadline), kill)
    timer.start()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if stderr_path:
        err.close()
    return wall, proc.returncode, usage.ru_maxrss / 1024.0, expired.is_set()


def first_line_latency(argv, deadline):
    """Seconds from launching argv until it prints its first line."""
    deadline = allow(deadline)
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    timer = threading.Timer(deadline, proc.kill)
    timer.start()
    line = proc.stdout.readline()
    took = time.perf_counter() - t0
    proc.stdout.read()
    code = proc.wait()
    timer.cancel()
    if code != 0 or not line.startswith("ready"):
        raise RuntimeError(f"{' '.join(map(str, argv))}: exit {code}")
    return took


# ------------------------------------------------------------ reference


def load_reference(sim_version):
    """The reference rows for `sim_version`, or a named error."""
    try:
        ref = json.loads(REFERENCE.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"reference table {REFERENCE.name} unreadable: {e}")
    if ref.get("sim_version") != sim_version:
        raise BenchError(
            f"reference table covers SIM_VERSION {ref.get('sim_version')!r}, the program "
            f"reports {sim_version!r}; regenerate it with `python3 perfbench/run.py "
            f"--regen-reference`")
    return ref


def ref_rows(ref, scale):
    """{digest: row} and {(workload, model): row} for one scale."""
    by_digest, by_job = {}, {}
    for digest, workload, model, cycles, insns, ipc in ref[scale]:
        row = {"cycles": cycles, "retired_insns": insns, "ipc": ipc}
        by_digest[digest] = row
        by_job[(workload, model)] = row
    return by_digest, by_job


def check_full_rows(jobs, ref, scale, tally):
    """Every full-detail row must equal its reference row bit for bit."""
    by_digest, _ = ref_rows(ref, scale)
    for j in jobs:
        want = by_digest.get(j["digest"])
        got = {k: j[k] for k in ("cycles", "retired_insns", "ipc")}
        if want is None:
            tally.record(f"{j['workload']} x {j['model']}: digest {j['digest']} not in the reference")
        elif got != want:
            tally.record(f"{j['workload']} x {j['model']}: {got} != reference {want}")
        else:
            tally.record()


def check_sampled_rows(jobs, ref, tally):
    """Sampled rows must cover exactly the reference run's instructions;
    returns the worst |IPC error| in percent against the full-detail
    reference."""
    _, by_job = ref_rows(ref, "huge")
    worst = 0.0
    for j in jobs:
        want = by_job.get((j["workload"], j["model"]))
        if want is None or not j.get("sampled"):
            tally.record(f"{j['workload']} x {j['model']}: no sampled reference row")
            continue
        if j["retired_insns"] != want["retired_insns"]:
            tally.record(f"{j['workload']} x {j['model']}: covers {j['retired_insns']} insns, "
                         f"reference {want['retired_insns']}")
            continue
        tally.record()
        worst = max(worst, abs(j["ipc"] - want["ipc"]) / want["ipc"] * 100.0)
    return worst


def regen_reference(dmdp, tmp):
    """Writes reference.json from full-detail campaigns at Full and Huge
    scale plus the default sampled campaign at Huge scale."""
    ref = {"generated_by": "python3 perfbench/run.py --regen-reference"}
    arts = {}
    for scale, extra in (("full", []), ("huge", []), ("huge-sampled", ["--sampled"])):
        out = tmp / f"ref-{scale}.json"
        argv = [dmdp, "campaign", "--scale", scale.split("-")[0], "--model", "all",
                "--jobs", "2", "--force", "--quiet", "--out", out] + extra
        print(f"regen: {' '.join(map(str, argv[1:]))}", file=sys.stderr)
        wall, code, _, _ = run_timed(argv, 3600)
        if code != 0:
            raise BenchError(f"reference campaign at {scale} failed (exit {code})")
        arts[scale] = json.loads(out.read_text())
    ref["sim_version"] = arts["full"]["sim_version"]
    for scale in ("full", "huge"):
        ref[scale] = [[j["digest"], j["workload"], j["model"], j["cycles"],
                       j["retired_insns"], j["ipc"]] for j in arts[scale]["jobs"]]
    scratch = Tally()
    ref["sampled_ipc_err_max_pct"] = check_sampled_rows(arts["huge-sampled"]["jobs"], ref, scratch)
    if scratch.failed:
        raise BenchError(f"sampled rows disagree with the full runs: {scratch.errors}")
    text = "{\n"
    for key in ("generated_by", "sim_version", "sampled_ipc_err_max_pct"):
        text += f'  "{key}": {json.dumps(ref[key])},\n'
    for scale, sep in (("full", ","), ("huge", "")):
        rows = ",\n".join(f"    {json.dumps(r)}" for r in ref[scale])
        text += f'  "{scale}": [\n{rows}\n  ]{sep}\n'
    REFERENCE.write_text(text + "}\n")
    print(f"wrote {REFERENCE} ({len(ref['full'])} + {len(ref['huge'])} rows, "
          f"sampled worst |IPC err| {ref['sampled_ipc_err_max_pct']:.4f}%)", file=sys.stderr)


# ------------------------------------------------------------ campaigns


def campaign_argv(dmdp, workload, out):
    if workload == "matrix_full":
        extra = ["--scale", "full"]
    else:
        extra = ["--sampled", "--scale", "huge"]
    return [dmdp, "campaign", *extra, "--model", "all", "--jobs", "2", "--force", "--quiet",
            "--out", out]


def campaign_setup(probe, workload, count, tally):
    """Process start -> job list built, `count` times (sampled bundle
    builds are not set-up: they count in wall_s)."""
    scale = "full" if workload == "matrix_full" else "huge"
    times = []
    for _ in range(count):
        try:
            times.append(first_line_latency([probe, "setup", "--scale", scale], SETUP_DEADLINE))
            tally.record()
        except RuntimeError as e:
            tally.record(f"setup: {e}")
    return times


def run_campaign(dmdp, workload, out, tally):
    """One `dmdp campaign`; returns (wall_s, maxrss_mib, artifact) or None."""
    wall, code, rss, late = run_timed(campaign_argv(dmdp, workload, out), CAMPAIGN_DEADLINE,
                                      stderr_path=str(out) + ".err")
    why = f"past its {CAMPAIGN_DEADLINE}s deadline" if late else f"exit {code}"
    try:
        if late or code != 0:
            raise ValueError(why)
        return wall, rss, json.loads(Path(out).read_text())
    except (OSError, ValueError) as e:
        for _ in range(84):
            tally.record(f"campaign: {e}")
        return None


def check_campaign(workload, art, tally):
    """Checks the rows against the reference; returns the worst sampled
    IPC error (0 for full-detail rows)."""
    ref = load_reference(art["sim_version"])
    if len(art["jobs"]) != 84:
        tally.fail(f"campaign produced {len(art['jobs'])} rows, expected 84")
    if workload == "matrix_full":
        check_full_rows(art["jobs"], ref, "full", tally)
        return 0.0
    worst = check_sampled_rows(art["jobs"], ref, tally)
    limit = ref["sampled_ipc_err_max_pct"] * (1 + ACCURACY_SLACK)
    if worst > limit:
        tally.fail(f"worst sampled IPC error {worst:.4f}% exceeds {limit:.4f}% "
                   f"(reference {ref['sampled_ipc_err_max_pct']:.4f}% + {ACCURACY_SLACK:.0%})")
    return worst


def campaign_workload(workload, seconds, trace, dmdp, probe, tmp, tally):
    if trace:
        return campaign_traced(workload, dmdp, probe, tmp, tally)
    walls, mips, rss, lat, setups = [], [], [], [], []
    worst = 0.0
    start = time.perf_counter()
    r = 0
    # Campaigns follow one another until the next would end, by the
    # median so far, more than half a campaign past `seconds`.
    while r == 0 or time.perf_counter() - start + stats.median(walls or [0]) / 2 <= seconds:
        # Set-ups are spread over the run, so their median sees the same
        # host phases as the campaigns.
        setups += campaign_setup(probe, workload, SETUP_REPEATS, tally)
        done = run_campaign(dmdp, workload, tmp / f"c{r}.json", tally)
        r += 1
        if done is None:
            break
        wall, peak, art = done
        worst = max(worst, check_campaign(workload, art, tally))
        walls.append(wall)
        rss.append(peak)
        mips.append(sum(j["retired_insns"] for j in art["jobs"]) / wall / 1e6)
        lat += [j["finished_s"] - j["started_s"] for j in art["jobs"]]
    if not walls or not setups:
        return None, []
    pct, tail_v = stats.tail(lat)
    notes = [f"{len(walls)} campaigns, {len(setups)} set-ups, {len(lat)} job latencies "
             f"(tail = p{pct:g})"]
    if workload == "sampled_huge":
        notes.append(f"ipc_err_max_pct {worst:.4f} % (worst sampled row vs full-detail reference)")
    return {
        "wall_s": stats.median(walls),
        "sim_mips": stats.median(mips),
        "setup_s": stats.median(setups),
        "peak_rss_mb": stats.median(rss),
        "submit_p50_s": stats.median(lat),
        "submit_tail_s": tail_v,
    }, notes


def same_rows(a, b):
    key = ("digest", "cycles", "retired_insns", "ipc")
    return [tuple(j[k] for k in key) for j in a["jobs"]] == [tuple(j[k] for k in key) for j in b["jobs"]]


def campaign_traced(workload, dmdp, probe, tmp, tally):
    """One untraced `dmdp campaign`, then the same campaign driven
    through the layers' public calls with spans."""
    done = run_campaign(dmdp, workload, tmp / "untraced.json", tally)
    if done is None:
        return None, []
    wall_u, _, art_u = done
    check_campaign(workload, art_u, tally)
    argv = [probe, "campaign", "--jobs", "2", "--out", tmp / "traced.json",
            "--spans", tmp / "spans.jsonl"]
    if workload == "matrix_full":
        argv += ["--scale", "full"]
    else:
        s = art_u["sampling"]
        argv += ["--scale", "huge", "--interval-insns", str(s["interval_insns"]),
                 "--warmup-intervals", str(s["warmup_intervals"])]
    try:
        out = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                             timeout=allow(CAMPAIGN_DEADLINE))
    except subprocess.TimeoutExpired:
        tally.fail(f"traced campaign past its {CAMPAIGN_DEADLINE}s deadline")
        return None, []
    if out.returncode != 0:
        tally.fail(f"traced campaign: exit {out.returncode}")
        return None, []
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    art_t = json.loads((tmp / "traced.json").read_text())
    worst = check_campaign(workload, art_t, tally)
    if not same_rows(art_t, art_u):
        tally.fail("traced campaign rows differ from `dmdp campaign` rows")
    metrics = dict(doc["metrics"])
    metrics["sample.ipc_err_max_pct"] = worst
    metrics["trace.overhead_s"] = doc["wall_s"] - wall_u
    keep_spans(tmp / "spans.jsonl", workload)
    return metrics, [f"traced wall {doc['wall_s']:.4f} s, untraced {wall_u:.4f} s"]


def keep_spans(path, workload):
    """Keeps the last traced run's spans next to the build output."""
    if path.exists():
        shutil.copy(path, target_dir() / f"perfbench-spans-{workload}.jsonl")


# ------------------------------------------------------------ served_mix


def make_spec(seed, cold_sweeps):
    """The seeded request schedule: distinct sizing sweeps (so every cold
    job misses the store), the warm re-submit order and the rows to
    re-simulate."""
    rng = random.Random(seed)
    prf_offsets = rng.sample(range(64), cold_sweeps)
    sweeps = []
    for k in range(cold_sweeps):
        sweeps.append([
            {"label": f"s{k}v{j}", "sb": sb + rng.randint(-2, 2), "rob": rob,
             "prf": rob + 64 + prf_offsets[k]}
            for j, (sb, rob) in enumerate(SWEEP_GRID)])
    rows = 21 * 4 * len(SWEEP_GRID)
    return {
        "socket": "d.sock",
        "scale": "small",
        "sweeps": sweeps,
        "warm_submits": WARM_SUBMITS,
        "warm_seed": rng.randrange(1 << 32),
        "resim": [[rng.randrange(cold_sweeps), rng.randrange(rows)] for _ in range(RESIM_ROWS)],
        "cold_deadline_s": COLD_DEADLINE,
        "warm_deadline_s": WARM_DEADLINE,
    }


class Daemon:
    """`dmdp serve --workers 2` on an empty store in `rundir`."""

    def __init__(self, dmdp, rundir):
        self.rundir = rundir
        shutil.rmtree(rundir, ignore_errors=True)
        rundir.mkdir(parents=True)
        with open(rundir / "serve.err", "w") as err:
            t0 = time.perf_counter()
            self.proc = subprocess.Popen(
                [dmdp, "serve", "--workers", "2", "--socket", "d.sock", "--store", "store",
                 "--quiet", "--log", "events.jsonl"],
                cwd=rundir, stdout=subprocess.DEVNULL, stderr=err, start_new_session=True)
        self.ready_s = self._wait_ready(t0)

    def socket_path(self):
        """The daemon's socket, relative when that is shorter: unix socket
        paths are limited to 108 bytes and checkouts can be deep."""
        path = self.rundir / "d.sock"
        return min(str(path), os.path.relpath(path), key=len)

    def _wait_ready(self, t0):
        """Seconds from launch until the socket answers with both workers
        registered."""
        wait = allow(SETUP_DEADLINE)
        deadline = t0 + wait
        conn = socket.socket(socket.AF_UNIX)
        conn.settimeout(wait)
        path = self.socket_path()
        try:
            while True:
                try:
                    conn.connect(path)
                    break
                except (FileNotFoundError, ConnectionRefusedError):
                    if time.perf_counter() > deadline or self.proc.poll() is not None:
                        raise RuntimeError("daemon socket never answered")
                    time.sleep(0.001)
            reader = conn.makefile("rb")
            while True:
                conn.sendall(b'{"type":"metrics"}\n')
                reply = json.loads(reader.readline())
                workers = [e["value"] for e in reply["metrics"] if e["name"] == "dmdp_workers"]
                if workers and workers[0] >= 2:
                    return time.perf_counter() - t0
                if time.perf_counter() > deadline:
                    raise RuntimeError("workers never registered")
                time.sleep(0.001)
        finally:
            conn.close()

    def peak_rss_mib(self):
        """Peak resident memory of the coordinator plus its workers."""
        total = 0
        for pid in [self.proc.pid] + children_of(self.proc.pid):
            try:
                with open(f"/proc/{pid}/status") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1])
            except OSError:
                pass
        return total / 1024.0

    def stop(self):
        """Drains the daemon; kills its process group if that fails."""
        try:
            wait = allow(SHUTDOWN_DEADLINE)
            conn = socket.socket(socket.AF_UNIX)
            conn.settimeout(wait)
            conn.connect(self.socket_path())
            conn.sendall(b'{"type":"shutdown"}\n')
            conn.makefile("rb").readline()
            conn.close()
            self.proc.wait(timeout=wait)
            return None
        except (OSError, subprocess.TimeoutExpired, ValueError, OutOfTime) as e:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except OSError:
                pass
            self.proc.wait()
            return f"daemon did not drain: {e}"


def launch(dmdp, rundir, tally):
    try:
        d = Daemon(dmdp, rundir)
        tally.record()
        return d
    except (RuntimeError, OSError, ValueError) as e:
        tally.record(f"daemon launch: {e}")
        reap_all()
        return None


def served_pass(dmdp, probe, spec, rundir, tally, spans=None):
    """One daemon, one load-generator run against it. Returns the
    load generator's document and the daemon's peak RSS."""
    daemon = launch(dmdp, rundir, tally)
    if daemon is None:
        return None, 0.0, None
    spec = dict(spec, out_dir=str(rundir), store_dir=str(rundir / "store"))
    (rundir / "spec.json").write_text(json.dumps(spec))
    argv = [probe, "served", "--spec", "spec.json"] + (["--spans", "spans.jsonl"] if spans else [])
    try:
        out = subprocess.run(argv, cwd=rundir, stdout=subprocess.PIPE, text=True,
                             timeout=allow(LOADGEN_DEADLINE))
        doc = json.loads(out.stdout.strip().splitlines()[-1]) if out.returncode == 0 else None
        if doc is None:
            tally.fail(f"load generator exit {out.returncode}")
    except (IndexError, ValueError):
        doc = None
        tally.fail("load generator printed no result")
    except subprocess.TimeoutExpired:
        doc = None
        tally.fail(f"load generator past its {LOADGEN_DEADLINE}s deadline")
    rss = daemon.peak_rss_mib()
    stopped = daemon.stop()
    if stopped:
        tally.fail(stopped)
    if doc is not None:
        tally.absorb(int(doc["attempted"]), int(doc["failed"]), doc["errors"])
        if doc.get("replay_failed"):
            tally.fail(f"{doc['replay_failed']} replayed worker rows differ from served rows")
    return doc, rss, daemon.ready_s


def served_workload(seed, seconds, trace, dmdp, probe, tmp, tally):
    spec = make_spec(seed, max(2, math.ceil(seconds / COLD_SWEEP_SECONDS)))
    if trace:
        plain, _, _ = served_pass(dmdp, probe, spec, tmp / "untraced", tally)
        traced, _, _ = served_pass(dmdp, probe, spec, tmp / "traced", tally, spans=True)
        if plain is None or traced is None:
            return None, []
        keep_spans(tmp / "traced" / "spans.jsonl", "served_mix")
        metrics = dict(traced["metrics"])
        metrics["trace.overhead_s"] = traced["cold_wall_s"] - plain["cold_wall_s"]
        return metrics, [f"traced cold stream {traced['cold_wall_s']:.4f} s, "
                         f"untraced {plain['cold_wall_s']:.4f} s"]
    setups = []
    for k in range(SERVED_LAUNCHES - 1):
        daemon = launch(dmdp, tmp / f"setup{k}", tally)
        if daemon is not None:
            setups.append(daemon.ready_s)
            stopped = daemon.stop()
            if stopped:
                tally.fail(stopped)
    doc, rss, ready = served_pass(dmdp, probe, spec, tmp / "run", tally)
    if doc is None or not doc["warm_lat_s"]:
        return None, []
    setups.append(ready)
    lat = doc["warm_lat_s"]
    pct, tail_v = stats.tail(lat)
    notes = [f"{len(spec['sweeps'])} cold sweeps x {21 * 4 * len(SWEEP_GRID)} rows, "
             f"{len(lat)} warm re-submits (tail = p{pct:g}), {len(setups)} daemon launches"]
    return {
        "wall_s": doc["cold_wall_s"],
        "sim_mips": doc["cold_insns"] / doc["cold_wall_s"] / 1e6,
        "setup_s": stats.median(setups),
        "peak_rss_mb": rss,
        "submit_p50_s": stats.median(lat),
        "submit_tail_s": tail_v,
    }, notes


# ---------------------------------------------------------------- main


def run_workload(args):
    dmdp, probe = build()
    tmp = target_dir() / f"perfbench-tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    start_budget()
    try:
        if args.workload == "served_mix":
            metrics, notes = served_workload(args.seed, args.seconds, args.trace, dmdp, probe,
                                             tmp, tally)
        else:
            metrics, notes = campaign_workload(args.workload, args.seconds, args.trace, dmdp,
                                               probe, tmp, tally)
    except OutOfTime as e:
        tally.record(str(e))
        metrics, notes = None, []
    finally:
        reap_all()
        shutil.rmtree(tmp, ignore_errors=True)
    wanted = PER_LAYER if args.trace else {k: v[0] for k, v in END_TO_END.items()}
    if metrics is None:
        tally.fail("no measurement completed")
        metrics = {}
    out = {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
           for name, unit in wanted.items()}
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, m in out.items():
        print(f"  {name:34s} {m['value']:16.6f} {m['unit']}")
    for note in notes:
        print(f"  {note}")
    print(f"  operations attempted {tally.attempted}, failed {tally.failed}")
    for e in tally.errors:
        print(f"  FAILED: {e}")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": max(1, tally.attempted),
                      "failed": tally.failed, "metrics": out}))
    return 0 if correct else 1


def steadiness(args):
    """Runs the workloads interleaved round-robin and reports, for each
    (workload, metric), the median, quartiles and relative spread."""
    workloads = args.workload_list or list(WORKLOADS)
    runs = {w: [] for w in workloads}
    for i in range(args.steadiness):
        for w in workloads:
            seed = args.first_seed + i
            argv = [sys.executable, __file__, "--workload", w, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            out = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            try:
                doc = json.loads(out.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                raise BenchError(f"{w} seed {seed} printed no result (exit {out.returncode})")
            runs[w].append(doc)
            print(f"[{i + 1}/{args.steadiness}] {w} seed {seed}: exit {out.returncode}, "
                  f"failed {doc['failed']}, {time.perf_counter() - t0:.0f}s", file=sys.stderr)
    record = target_dir() / f"perfbench-steadiness-{int(time.time())}.json"
    record.write_text(json.dumps(runs))
    flagged = 0
    print(f"{'workload':13s} {'metric':34s} {'unit':8s} {'median':>14s} {'q1':>14s} "
          f"{'q3':>14s} {'spread':>8s}")
    for w, docs in runs.items():
        for name, m in docs[0]["metrics"].items():
            values = [d["metrics"][name]["value"] for d in docs]
            q1, q2, q3 = stats.quartiles(values)
            rel = stats.spread(values)
            flag = ""
            if name in END_TO_END:
                bound = END_TO_END[name][2]
                flag = next((f"  > {label}" for limit, label in
                             ((bound, "bound"), (0.1, "0.1"), (bound / 3, "bound/3"))
                             if rel > limit), "")
                flagged += rel > 0.1
            print(f"{w:13s} {name:34s} {m['unit']:8s} {q2:14.6f} {q1:14.6f} {q3:14.6f} "
                  f"{rel:8.4f}{flag}")
        attempted = sum(d["attempted"] for d in docs)
        failed = sum(d["failed"] for d in docs)
        print(f"{w:13s} runs {len(docs)}, operations attempted {attempted}, failed {failed}")
    print(f"raw results: {record}")
    return 1 if flagged else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", dest="workload_list", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, metavar="N",
                   help="run every workload N times, interleaved, and report spreads")
    p.add_argument("--first-seed", type=int, default=1, help="first seed of --steadiness")
    p.add_argument("--regen-reference", action="store_true",
                   help="rewrite reference.json from full-detail campaigns")
    args = p.parse_args()
    become_subreaper()
    try:
        if args.regen_reference:
            dmdp, _ = build()
            tmp = target_dir() / f"perfbench-tmp-{os.getpid()}"
            tmp.mkdir(parents=True, exist_ok=True)
            try:
                regen_reference(dmdp, tmp)
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
            return 0
        if args.steadiness:
            return steadiness(args)
        if not args.workload_list or len(args.workload_list) != 1:
            p.error("give exactly one --workload (or --steadiness / --regen-reference)")
        args.workload = args.workload_list[0]
        return run_workload(args)
    except BenchError as e:
        print(f"perfbench: error: {e}", file=sys.stderr)
        return 2
    finally:
        reap_all()


if __name__ == "__main__":
    sys.exit(main())

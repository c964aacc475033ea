#!/usr/bin/env python3
"""End-to-end benchmark of LIMA's two shipped tools.

Runs one workload and prints, as its last stdout line, one JSON object:

    python3 perfbench/run.py --workload text-grouped --seed 1 --seconds 18 --trace 0

Each run builds the tools from this checkout (perfbench/CMakeLists.txt,
into $CARGO_TARGET_DIR or .bench_build), generates the workload's input
from the seed, then starts the real `lima_analyze` / `lima_monitor`
binaries as cold subprocesses, one at a time, for --seconds seconds and
checks every output against the reference perfbench_tool renders
in-process.

--trace 0 reports the end-to-end metrics (wall_s, peak_rss_mb,
setup_s); serial_wall_s, the --threads 1 wall, is on the summary line
before the JSON line only, as it drifts too much with the machine to be
bounded.  --trace 1 reports the per-layer metrics (serial_wall_s as
process.serial_wall_ms among them) of a separate traced in-process run
(perfbench_tool layers), which calls each layer's public function in
the order the tool does; its spans are written as a Chrome trace to
<build>/perfbench-work/<workload>/spans.json and the full per-layer
table to layers.json next to it.

--workload all runs every workload in turn and prints one summary.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Workload name -> one-line reason (mirrored in BENCHMARK.json).
WORKLOADS = {
    "text-grouped": "lima_analyze on processor-grouped text, as saveTrace "
                    "writes it: the sharded text parse at its worst",
    "text-interleaved": "lima_analyze on the same events ordered by time "
                        "across processors, as a live tracer emits them: "
                        "the shard merge under the other layout",
    "limb-v2": "lima_analyze on the same events as LIMB v2 with block "
               "CRCs: index validation, CRC and block decode, no text scan",
    "monitor-stream": "lima_monitor --log-json reading the interleaved text "
                      "to EOF: StreamParser and WindowedAnalyzer only",
}

# ~4M events: 64 processors x 7 regions x 4 activities, about 83 MB of
# text (44 MB as LIMB v2).  One cold lima_analyze takes 0.15-0.7 s and
# one lima_monitor about 1 s on a 4-core box.
DEFAULT_EVENTS = 4_000_000
# Monitor window width: about 5,700 windows over the default trace's
# 5.7 s, where draining completed windows is about half of the run.
WINDOW_SECONDS = 0.001
# Timed generate-and-write repetitions per run, spread over the run;
# setup_s is their median.  As many as fit in SETUP_SECONDS, within
# SETUP_REPEATS: a text-grouped set-up takes ~2 s (the text writer),
# the others ~0.25 s, and each is noisy by ~10%.
SETUP_SECONDS = 4.0
SETUP_REPEATS = (5, 25)
# Untimed invocations before measuring.
WARMUP_SECONDS = 1.0
# Cold `--version` invocations per traced run for process.startup_ms.
STARTUP_REPEATS = 7

# Per-layer metrics of the JSON line: present on every workload.
# "ingest", "fold" and "views" name each tool's three stages; the
# layer-specific metrics behind them are in layers.json.
STAGES = {
    "layer.input_ms": ("support.map_fault_ms", "support.read_ms"),
    "layer.ingest_ms": ("trace.text_parse_ms", "trace.binary_parse_ms",
                        "trace.stream_feed_ms"),
    "layer.ingest_serial_ms": ("trace.text_parse_serial_ms",
                               "trace.binary_parse_serial_ms",
                               "trace.stream_feed_ms"),
    "layer.fold_ms": ("core.reduce_ms", "core.window_add_ms"),
    "layer.views_ms": ("core.analyze_ms", "core.window_drain_ms"),
}

# Every layer metric the traced run can produce.  layers.json lists
# them all, "absent" where the workload's tool does not reach the layer.
LAYER_METRICS = (
    "support.map_fault_ms", "support.read_ms", "trace.text_parse_ms",
    "trace.text_parse_serial_ms", "trace.text_parse_mb_per_s",
    "trace.binary_parse_ms", "trace.binary_parse_serial_ms",
    "support.crc32_ms", "trace.stream_feed_ms", "core.reduce_ms",
    "core.reduce_serial_ms", "core.analyze_ms", "core.analyze_serial_ms",
    "cluster.kmeans_ms", "core.render_ms", "core.window_add_ms",
    "core.window_drain_ms", "core.windows",
)

# The spans on each tool's own path at the default thread count; their
# sum plus start-up is what the traced run accounts for of wall_s.
# (support.crc32 and cluster.kmeans time shares of trace.binary_parse
# and core.analyze.)
TOOL_PATH = {
    "analyze": ("support.map_fault_ms", "trace.text_parse_ms",
                "trace.binary_parse_ms", "core.reduce_ms", "core.analyze_ms",
                "core.render_ms"),
    "monitor": ("support.read_ms", "trace.stream_feed_ms",
                "core.window_add_ms", "core.window_drain_ms"),
}


class BenchError(Exception):
    """A failure that stops the run before it can report."""


def build_root():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def tool_env(broot):
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(broot, "tmp")
    return env


def build(broot):
    """Configures (once) and builds the benchmark package; returns the
    paths of its binaries."""
    bdir = os.path.join(broot, "perfbench")
    os.makedirs(os.path.join(broot, "tmp"), exist_ok=True)
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no LIMA sources next to perfbench/ (%s)" % ROOT)
    env = tool_env(broot)
    with open(os.path.join(broot, "perfbench-build.log"), "w") as out:
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", bdir,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                               env=env) != 0:
                raise BenchError("cmake configure failed; see %s" % out.name)
        jobs = str(min(4, os.cpu_count() or 1))
        if subprocess.call(["cmake", "--build", bdir, "-j", jobs], stdout=out,
                           stderr=subprocess.STDOUT, env=env) != 0:
            raise BenchError("build failed; see %s" % out.name)
    return {
        "analyze": os.path.join(bdir, "lima_analyze"),
        "monitor": os.path.join(bdir, "lima", "apps", "lima_monitor",
                                "lima_monitor"),
        "tool": os.path.join(bdir, "perfbench_tool"),
        "spawn": os.path.join(bdir, "perfbench_spawn"),
    }


def run_cold(bins, argv, env):
    """Starts argv as a fresh process, through perfbench_spawn (see there
    why), with stdout on a pipe; returns argv's (wall seconds, peak RSS
    in MB, stdout bytes, exit code)."""
    proc = subprocess.Popen([bins["spawn"]] + argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    out, err = proc.communicate()
    try:
        wall, rss_kib = err.split()
        return float(wall), int(rss_kib) / 1024.0, out, proc.returncode
    except ValueError:
        raise BenchError("perfbench_spawn failed: %s" %
                         err.decode(errors="replace").strip())


def run_tool(argv, env, what):
    """Runs a perfbench_tool step and returns its JSON stdout line."""
    proc = subprocess.run(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env, text=True)
    if proc.returncode != 0:
        raise BenchError("%s failed: %s" % (what, proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- output checks ---------------------------------------------------------

def check_report(out, expected):
    """lima_analyze's stdout must equal the reference byte for byte."""
    return out == expected


def window_records(lines):
    """(window, events, top_region, sid_c) of every "window" record in
    lima_monitor --log-json output (or the reference's records)."""
    records = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        if rec.get("msg", "window") != "window":
            continue
        records.append((rec["window"], rec["events"], rec["top_region"],
                        rec["sid_c"]))
    return records


def check_windows(out, expected, events):
    """The monitor's window records must equal the in-process
    WindowedAnalyzer pass, and its closing record must count every
    event of the trace."""
    try:
        lines = out.decode().splitlines()
        if window_records(lines) != expected:
            return False
        done = [json.loads(l) for l in lines if '"stream complete"' in l]
        return len(done) == 1 and done[0]["events"] == events
    except (ValueError, KeyError, UnicodeDecodeError):
        return False


# --- one workload ------------------------------------------------------------

class Workload:
    def __init__(self, name, bins, broot, seed, events):
        self.name = name
        self.bins = bins
        self.env = tool_env(broot)
        self.seed = seed
        self.events = events
        self.monitor = name == "monitor-stream"
        self.work = os.path.join(broot, "perfbench-work", name)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.input = os.path.join(self.work,
                                  "input.limb" if name == "limb-v2"
                                  else "input.trace")
        self.attempted = 0
        self.failed = 0
        self.gen = None

    def setup(self):
        """Starts the generator, which writes the input with the library
        writers (one timed set-up) and renders the reference outputs, and
        loads the references.  The generator stays up for regenerate()."""
        ref = os.path.join(self.work, "expected.out")
        self.gen_log = os.path.join(self.work, "gen.err")
        with open(self.gen_log, "w") as err:
            self.gen = subprocess.Popen(
                [self.bins["tool"], "gen", "--workload", self.name, "--seed",
                 str(self.seed), "--events", str(self.events), "--out",
                 self.input, "--window", str(WINDOW_SECONDS),
                 "--windows-out" if self.monitor else "--ref-out", ref,
                 "--serve"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                env=self.env, text=True)
        self.info = self.gen_reply()
        self.setup_s = [self.info["setup_s"]]
        with open(ref, "rb") as f:
            data = f.read()
        self.expected = (window_records(data.decode().splitlines())
                         if self.monitor else data)

    def gen_reply(self):
        line = self.gen.stdout.readline()
        if not line:
            with open(self.gen_log) as f:
                raise BenchError("input generation failed: %s" %
                                 f.read().strip())
        return json.loads(line)

    def regenerate(self):
        """One more timed set-up, which the generator writes to a scratch
        file next to the input."""
        self.gen.stdin.write("\n")
        self.gen.stdin.flush()
        self.setup_s.append(self.gen_reply()["setup_s"])

    def argv(self, serial=False):
        if self.monitor:
            return [self.bins["monitor"], "--log-json", "--window",
                    str(WINDOW_SECONDS), self.input]
        return [self.bins["analyze"]] + (["--threads", "1"] if serial
                                         else []) + [self.input]

    def invoke(self, serial=False):
        """One cold, checked invocation; (wall s, RSS MB) or None."""
        wall, rss, out, code = run_cold(self.bins, self.argv(serial),
                                        self.env)
        self.attempted += 1
        ok = code == 0 and (
            check_windows(out, self.expected, self.info["events"])
            if self.monitor else check_report(out, self.expected))
        if not ok:
            self.failed += 1
            with open(os.path.join(self.work, "failed.out"), "wb") as f:
                f.write(out)
            return None
        return wall, rss

    def measure(self, seconds, serial_too, setups=1):
        """Alternates default and (optionally) serial invocations for
        `seconds`, after WARMUP_SECONDS of checked but untimed ones (the
        first invocations after writing the input run up to twice as
        slow).  Spreads `setups` - 1 more timed set-ups evenly over the
        window, so setup_s samples the machine at several moments too;
        their time does not count against `seconds`."""
        variants = (False, True) if serial_too else (False,)
        warmup = time.monotonic() + WARMUP_SECONDS
        while True:
            for serial in variants:
                self.invoke(serial)
            if time.monotonic() >= warmup:
                break
        samples = {v: [] for v in variants}
        start = time.monotonic()
        in_setup = 0.0

        def elapsed():
            return time.monotonic() - start - in_setup

        while elapsed() < seconds or min(map(len, samples.values())) < 3:
            due = elapsed() / seconds * setups
            if len(self.setup_s) < min(setups, int(due) + 1):
                began = time.monotonic()
                self.regenerate()
                in_setup += time.monotonic() - began
            for serial in variants:
                got = self.invoke(serial)
                if got:
                    samples[serial].append(got)
            if self.failed > self.attempted // 2 + 2:
                break
        while len(self.setup_s) < setups:
            self.regenerate()
        return samples

    def cleanup(self):
        """Stops the generator (EOF on its stdin) and removes the input."""
        if self.gen:
            self.gen.stdin.close()
            try:
                self.gen.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.gen.kill()
                self.gen.wait()
            self.gen.stdout.close()
        if os.path.exists(self.input):
            os.remove(self.input)


def median_of(samples, index):
    values = [s[index] for s in samples]
    return statistics.median(values) if values else float("nan")


def serial_walls(samples):
    """The --threads 1 samples.  lima_monitor has no thread setting: it
    always runs serially, so its serial wall is its wall."""
    return samples.get(True, samples[False])


def end_to_end(w, seconds):
    """The bounded metrics, and serial_wall_s for the summary line only:
    on a shared box the single-threaded wall drifts about twice as much
    as the 4-thread one, past any bound a comparison could use."""
    w.setup()
    fewest, most = SETUP_REPEATS
    setups = max(fewest, min(most, round(SETUP_SECONDS / w.setup_s[0])))
    samples = w.measure(seconds, serial_too=not w.monitor, setups=setups)
    default = samples[False]
    return {
        "wall_s": {"value": median_of(default, 0), "unit": "s"},
        "peak_rss_mb": {"value": median_of(default, 1), "unit": "MB"},
        "setup_s": {"value": statistics.median(w.setup_s), "unit": "s"},
    }, {"serial_wall_s": (median_of(serial_walls(samples), 0), "s")}


def per_layer(w, seconds):
    """The traced run: cold start-up, default-setting and serial walls,
    then perfbench_tool's traced in-process passes."""
    w.setup()
    startup = []
    for _ in range(STARTUP_REPEATS):
        binary = w.bins["monitor" if w.monitor else "analyze"]
        wall, _, _, code = run_cold(w.bins, [binary, "--version"], w.env)
        if code == 0:
            startup.append(wall * 1e3)
    samples = w.measure(seconds * 0.4, serial_too=not w.monitor)
    walls = samples[False]

    spans = os.path.join(w.work, "spans.json")
    rendered = os.path.join(w.work, "layers.out")
    result = run_tool([w.bins["tool"], "layers", "--workload", w.name,
                       "--input", w.input, "--seconds", str(seconds * 0.6),
                       "--window", str(WINDOW_SECONDS), "--chrome-out", spans,
                       "--output-out", rendered], w.env, "traced run")
    with open(rendered, "rb") as f:
        data = f.read()
    w.attempted += 1
    if (window_records(data.decode().splitlines()) if w.monitor
            else data) != w.expected:
        w.failed += 1

    layers = result["layers"]
    if "trace.text_parse_ms" in layers:
        layers["trace.text_parse_mb_per_s"] = (
            layers["trace.bytes"] / 1e6 / (layers["trace.text_parse_ms"] / 1e3))
    startup_ms = statistics.median(startup) if startup else float("nan")
    wall_ms = median_of(walls, 0) * 1e3
    path = TOOL_PATH["monitor" if w.monitor else "analyze"]
    accounted = sum(layers.get(name, 0.0) for name in path)
    overhead = 100.0 * (result["traced_ms"] / result["untraced_ms"] - 1.0)

    # The full table, every layer metric of the per-layer breakdown,
    # absent where the workload does not reach the layer.
    table = {name: (layers[name] if name in layers else "absent")
             for name in LAYER_METRICS}
    table.update({
        "trace.events": layers["trace.events"],
        "trace.bytes": layers["trace.bytes"],
        "trace.dropped_records": layers["trace.dropped_records"],
        "process.startup_ms": startup_ms,
        "process.unaccounted_ms": wall_ms - startup_ms - accounted,
        "process.wall_ms": wall_ms,
        "process.serial_wall_ms": median_of(serial_walls(samples), 0) * 1e3,
        "bench.traced_pass_ms": result["traced_ms"],
        "bench.untraced_pass_ms": result["untraced_ms"],
        "bench.tracing_overhead_pct": overhead,
        "bench.cycles": result["cycles"],
    })
    with open(os.path.join(w.work, "layers.json"), "w") as f:
        json.dump(table, f, indent=1, sort_keys=True)
    print("layers " + json.dumps(table, sort_keys=True))

    metrics = {}
    for stage, names in STAGES.items():
        value = next((layers[n] for n in names if n in layers), None)
        if value is None:
            raise BenchError("traced run reported none of %s" % (names,))
        metrics[stage] = {"value": value, "unit": "ms"}
    for name, unit in (("process.startup_ms", "ms"),
                       ("process.serial_wall_ms", "ms"),
                       ("process.unaccounted_ms", "ms"),
                       ("trace.events", "count"), ("trace.bytes", "B"),
                       ("trace.dropped_records", "count"),
                       ("bench.tracing_overhead_pct", "%")):
        value = table[name]
        metrics[name] = {"value": value if unit in ("ms", "%") else int(value),
                         "unit": unit}
    return metrics, {}


def run_workload(name, bins, broot, args):
    w = Workload(name, bins, broot, args.seed, args.events)
    try:
        metrics, extra = (per_layer if args.trace else end_to_end)(
            w, args.seconds)
    finally:
        w.cleanup()
    fail_ratio = w.failed / w.attempted if w.attempted else 1.0
    shown = [(k, v["value"], v["unit"]) for k, v in metrics.items()]
    shown += [(k, value, unit) for k, (value, unit) in extra.items()]
    summary = " ".join("%s=%.6g%s" % item for item in shown)
    print("%s: %s fail_ratio=%.4g (%d/%d)" % (name, summary, fail_ratio,
                                             w.failed, w.attempted))
    return {"correct": w.failed == 0, "attempted": w.attempted,
            "failed": w.failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--events", type=int, default=DEFAULT_EVENTS,
                        help="trace size (smaller for smoke tests)")
    args = parser.parse_args(argv)

    try:
        broot = build_root()
        bins = build(broot)
        if args.workload != "all":
            result = run_workload(args.workload, bins, broot, args)
        else:
            results = {name: run_workload(name, bins, broot, args)
                       for name in WORKLOADS}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "workloads": {n: r["metrics"] for n, r in results.items()},
            }
    except (BenchError, OSError, ValueError, KeyError) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

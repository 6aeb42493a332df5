#!/usr/bin/env python3
"""Compare the base commit against the working tree, run for run.

    python3 scripts/ab.py [--base REF]                               # perfbench mode
    python3 scripts/ab.py [--base REF] go PKG REGEX [go test flags]  # go mode

The base defaults to `git merge-base HEAD main`; the change side is the
checkout as it stands. perfbench mode runs ten alternating pairs of every
BENCHMARK.json workload plus one traced pass a side; go mode alternates
ten runs of one `go test -c` binary a side. It prints one JSON document
with each side's runs, medians, quartiles, "change better in k/N" and a
verdict per metric, and exits 1 when anything regressed, 2 on a usage or
build error. docs/PERF.md ("Running the benchmarks") gives the protocol
and the verdict rule.
"""
import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 10
GO_BOUNDS = {"ns/op": 0.25}
SIDES = ("base", "change")


def summarize(runs):
    """Median and quartiles of a list of run values."""
    s = sorted(runs)
    if len(s) > 1:
        q1, _, q3 = statistics.quantiles(s, n=4, method="inclusive")
    else:
        q1 = q3 = s[0]
    return {"runs": runs, "median": statistics.median(s), "q1": q1, "q3": q3, "iqr": q3 - q1}


def is_better(a, b, better):
    return a < b if better == "lower" else a > b


def relative(x, base):
    """x relative to a base value; a nonzero x over a zero base is infinite."""
    if base:
        return x / abs(base)
    return 0.0 if x == 0 else math.inf


def verdict(base, change, better, bound):
    """The verdict on one metric from the base and change runs."""
    if not base or not change:
        return "unresolved"
    if all(is_better(c, b, better) for c in change for b in base):
        return "ok"
    sb, sc = summarize(base), summarize(change)
    worse = sc["median"] - sb["median"] if better == "lower" else sb["median"] - sc["median"]
    if relative(worse, sb["median"]) > bound:
        return "regressed"
    if max(relative(s["iqr"], s["median"]) for s in (sb, sc)) > bound:
        return "unresolved"
    return "ok"


def compare(base, change, better, bound):
    """Compare one metric. base and change hold one value per pair, in
    pair order, None where that side's run failed."""
    pairs = [(b, c) for b, c in zip(base, change) if b is not None and c is not None]
    base = [b for b in base if b is not None]
    change = [c for c in change if c is not None]
    k = sum(is_better(c, b, better) for b, c in pairs)
    out = {"better": better, "change_better": "%d/%d" % (k, len(pairs))}
    if base:
        out["base"] = summarize(base)
    if change:
        out["change"] = summarize(change)
    if bound is not None:
        out["bound"] = bound
        out["verdict"] = verdict(base, change, better, bound)
    return out


def worst(verdicts):
    verdicts = set(verdicts)
    return next((v for v in ("regressed", "unresolved") if v in verdicts), "ok")


def entry_verdict(entry):
    """The verdict on one workload or benchmark pair: regressed when the
    change failed more operations or runs, else its metrics' worst."""
    failed = entry["failed"]
    if any(failed[k]["change"] > failed[k]["base"] for k in failed):
        return "regressed"
    return worst(m.get("verdict") for m in entry["metrics"].values())


def compare_workload(runs, declared):
    """Compare one perfbench workload. runs maps each side to its result
    lines in pair order (None for a run that did not finish); declared is
    BENCHMARK.json's end_to_end list."""
    done = {side: [r for r in runs[side] if r is not None] for side in SIDES}
    entry = {
        "attempted": {side: sum(r["attempted"] for r in done[side]) for side in SIDES},
        "failed": {
            "operations": {side: sum(r["failed"] for r in done[side]) for side in SIDES},
            "runs": {side: runs[side].count(None) for side in SIDES},
        },
        "metrics": {},
    }
    for m in declared:
        vals = {side: [None if r is None else r["metrics"][m["name"]]["value"] for r in runs[side]] for side in SIDES}
        entry["metrics"][m["name"]] = dict(unit=m["unit"], **compare(vals["base"], vals["change"], m["better"], m["bound"]))
    entry["verdict"] = entry_verdict(entry)
    return entry


def parse_bench(text):
    """The result lines of `go test -bench` output: {name: {unit: value}}."""
    out = {}
    for line in text.splitlines():
        f = line.split()
        if len(f) >= 4 and f[0].startswith("Benchmark") and f[1].isdigit():
            out[f[0]] = {f[i + 1]: float(f[i]) for i in range(2, len(f) - 1, 2)}
    return out


def pair_benchmarks(base, change):
    """Pair the benchmark names each side ran: the only one with the only
    one, otherwise equal names."""
    if len(base) == 1 and len(change) == 1:
        return [(base[0], change[0])]
    return [(n, n) for n in sorted(set(base) & set(change))]


def compare_go(runs):
    """Compare go-mode runs: runs maps each side to one parse_bench result
    per pair, None for a run that failed."""
    names = {side: sorted({n for r in runs[side] if r for n in r}) for side in SIDES}
    pairs = pair_benchmarks(names["base"], names["change"])
    if not pairs:
        raise ValueError("no benchmark pairs: base ran %s, change ran %s" % (names["base"], names["change"]))
    out = {}
    for b, c in pairs:
        got = {side: [r.get(n) if r else None for r in runs[side]] for side, n in zip(SIDES, (b, c))}
        units = sorted(set.intersection(*(set(u) for side in SIDES for u in got[side] if u)))
        entry = {
            "failed": {"runs": {side: got[side].count(None) for side in SIDES}},
            "metrics": {},
        }
        for unit in units:
            vals = {side: [None if u is None else u[unit] for u in got[side]] for side in SIDES}
            entry["metrics"][unit] = compare(vals["base"], vals["change"], "lower", GO_BOUNDS.get(unit))
        entry["verdict"] = entry_verdict(entry)
        out[b if b == c else "%s vs %s" % (b, c)] = entry
    return out


# --- running both sides -----------------------------------------------------


def git(*args):
    return subprocess.run(["git"] + list(args), cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def go_env(build):
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOTMPDIR=tmp,
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomod"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    return env


def extract(sha, dest):
    """Write the tree of commit sha to dest, replacing what was there."""
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise RuntimeError("cannot extract %s" % sha)


def build(cmd, cwd, env):
    print("ab: %s (in %s)" % (" ".join(cmd), cwd), file=sys.stderr)
    if subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr).returncode != 0:
        raise RuntimeError("build failed in %s" % cwd)


def pair_order(i):
    """Alternate which side runs first."""
    return SIDES if i % 2 == 0 else SIDES[::-1]


def run_perfbench(binary, cwd, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    print("ab: %s" % " ".join(cmd[1:]), file=sys.stderr)
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    if p.returncode != 0:
        print(p.stderr, file=sys.stderr)
        return None
    return json.loads(p.stdout.strip().splitlines()[-1])


def perfbench_mode(roots, bins, env):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for side in SIDES:
        build(["go", "build", "-o", bins[side], "."], os.path.join(roots[side], "perfbench"), env)
    secs = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    runs = {w: {side: [] for side in SIDES} for w in names}
    for i in range(PAIRS):
        for w in names:
            for side in pair_order(i):
                runs[w][side].append(run_perfbench(bins[side], roots[side], w, i + 1, secs, 0))
    out = {w: compare_workload(runs[w], bench["end_to_end"]) for w in names}
    for w in names:
        layers = {side: run_perfbench(bins[side], roots[side], w, 1, secs, 1) for side in SIDES}
        out[w]["per_layer"] = {side: r and {k: v["value"] for k, v in r["metrics"].items()} for side, r in layers.items()}
    return {"run_seconds": secs}, out


def go_mode(roots, bins, env, pkg, regex, flags):
    for side in SIDES:
        build(["go", "test", "-c", "-o", bins[side], pkg], roots[side], env)
    args = ["-test.run", "^$", "-test.bench", regex, "-test.timeout", "10m"]
    args += ["-test." + a[1:] if a.startswith("-") and not a.startswith("-test.") else a for a in flags]
    runs = {side: [] for side in SIDES}
    for i in range(PAIRS):
        for side in pair_order(i):
            print("ab: %s %s" % (side, " ".join(args)), file=sys.stderr)
            p = subprocess.run([bins[side]] + args, cwd=os.path.join(roots[side], pkg), capture_output=True, text=True)
            print(p.stdout, end="", file=sys.stderr)
            runs[side].append(parse_bench(p.stdout) if p.returncode == 0 else None)
    return {"package": pkg, "bench": regex, "flags": flags}, compare_go(runs)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return os.uname().machine


def main(argv):
    ap = argparse.ArgumentParser(description="Compare the base commit against the working tree.")
    ap.add_argument("--base", help="base commit (default: git merge-base HEAD main)")
    ap.add_argument("mode", nargs=argparse.REMAINDER, help="nothing for perfbench mode, or: go PKG REGEX [go test flags]")
    opts = ap.parse_args(argv)
    if opts.mode and (opts.mode[0] != "go" or len(opts.mode) < 3):
        ap.error("go mode takes: go PKG REGEX [go test flags]")
    try:
        base = git("rev-parse", "--verify", (opts.base or git("merge-base", "HEAD", "main")) + "^{commit}")
        work = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        roots = {"base": os.path.join(work, "ab", "src"), "change": ROOT}
        bins = {side: os.path.join(work, "ab", side + ".bin") for side in SIDES}
        extract(base, roots["base"])
        env = go_env(work)
        if opts.mode:
            extra, entries = go_mode(roots, bins, env, opts.mode[1], opts.mode[2], opts.mode[3:])
        else:
            extra, entries = perfbench_mode(roots, bins, env)
    except (RuntimeError, ValueError, subprocess.CalledProcessError) as e:
        print("ab: %s" % e, file=sys.stderr)
        return 2
    change = git("rev-parse", "HEAD") + ("+dirty" if git("status", "--porcelain") else "")
    result = {
        "env": dict(cpu=cpu_model(), nproc=os.cpu_count(), gomaxprocs=int(os.environ.get("GOMAXPROCS") or os.cpu_count()),
                    go=subprocess.run(["go", "env", "GOVERSION"], env=env, capture_output=True, text=True).stdout.strip(),
                    base=base, change=change, pairs=PAIRS, **extra),
        "verdict": worst(e["verdict"] for e in entries.values()),
        "results": entries,
    }
    # One line per value list keeps the runs of a metric together.
    print(re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]",
                 json.dumps(result, indent=1)))
    return 1 if result["verdict"] == "regressed" else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

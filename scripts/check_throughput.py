#!/usr/bin/env python3
"""Regression gate + ratchet for the simulation-engine throughput bench.

Gate mode compares a fresh BENCH_throughput.json (from bench/sim_throughput)
against the checked-in baseline and fails on:

  * any case where the two engines did not produce identical results
    (equivalence is checked inside the bench itself);
  * a skip-engine speedup more than 10% below the baseline speedup for the
    same case (wall-clock regression of the fast-forward path); idle-heavy
    cases are exempt from this relative check — their skip-engine walls are
    a few milliseconds, so the ratio of two tiny timings is too noisy for a
    10% band, and they are covered by the absolute 3x floor instead;
  * a visited-tick share more than 10% above baseline on closed-loop cases
    (a deterministic signal that the engine stopped skipping spans it used
    to skip, independent of machine speed);
  * busy-load core cycles stepped per tick more than 10% above baseline
    (host work per simulated tick: the core model stopped jumping blocked
    spans it used to jump; deterministic, like the visited share);
  * any idle-heavy open-loop case below the absolute speedup floor the
    engine is required to deliver on low-MLP workloads (1.5x: the skip
    engine must still pay for itself; the floor used to be 3x, but the
    per-channel sleep elision made *cycle-engine* ticks nearly free on
    idle spans, so the ratio now measures skip's edge over an already-fast
    baseline rather than over a naive full scan);
  * a stale baseline: fresh busy-load throughput more than 1.5x the
    baseline's busy_load.mticks_per_s means a committed hot-path win was
    never ratcheted into the baseline — rerun with --update-baseline.

Ratchet mode (--update-baseline) rewrites the baseline from a fresh bench
run. It applies the deterministic checks (engine equivalence, visited-tick
share, stepped cycles per tick) but not the wall-clock-ratio comparisons —
those compare against a baseline that may have been recorded on a
different machine, which is exactly what the update exists to refresh. What it does enforce is that
the ratchet only moves DOWN: the update is refused (exit 1) when the fresh
busy-load throughput regresses more than 10% against the committed
baseline, so a slower hot path can never silently loosen the gate
(--force overrides, for deliberate re-baselining on a slower machine).
The new baseline records the busy-load win explicitly as
busy_load.speedup_vs_previous.

Usage: check_throughput.py <BENCH_throughput.json> [baseline.json]
       check_throughput.py --update-baseline [--force] <BENCH_throughput.json> [baseline.json]
"""
import json
import sys

SPEEDUP_TOLERANCE = 0.90      # >10% regression fails
VISITED_TOLERANCE = 1.10      # >10% more visited ticks fails
WORK_TOLERANCE = 1.10         # >10% more core cycles stepped per tick fails
IDLE_HEAVY_FLOOR = 1.5        # required speedup on idle-heavy cases
RATCHET_TOLERANCE = 0.90      # busy mticks/s may not drop >10% on update
STALE_FACTOR = 1.50           # fresh busy mticks/s >1.5x baseline => stale

DEFAULT_BASELINE = "bench/baselines/sim_throughput_baseline.json"


def key(entry):
    return (entry.get("workload") or "load=%.3f" % entry["load"], entry["scheme"])


def index(doc, section):
    return {key(e): e for e in doc.get(section, [])}


def busy_mticks(doc):
    return doc.get("busy_load", {}).get("mticks_per_s")


def busy_stepped(doc):
    return doc.get("busy_load", {}).get("core_cycles_stepped_per_tick")


def gate_failures(bench, base, check_stale=True, check_wall_clock=True):
    failures = []
    if not bench.get("all_results_identical", False):
        failures.append("engine results diverged (all_results_identical is false)")

    for section in ("closed_loop", "open_loop"):
        fresh = index(bench, section)
        ref = index(base, section)
        for k, b in ref.items():
            e = fresh.get(k)
            if e is None:
                failures.append(f"{section} {k}: case missing from bench output")
                continue
            if not e.get("results_identical", False):
                failures.append(f"{section} {k}: engines disagreed")
            if "visited_share" in b and "visited_share" in e:
                if e["visited_share"] > b["visited_share"] * VISITED_TOLERANCE:
                    failures.append(
                        f"{section} {k}: visited share {e['visited_share']:.3f} "
                        f"grew >10% over baseline {b['visited_share']:.3f}")
            if not check_wall_clock:
                continue
            floor = b["speedup"] * SPEEDUP_TOLERANCE
            if not e.get("idle_heavy") and e["speedup"] < floor:
                failures.append(
                    f"{section} {k}: speedup {e['speedup']:.2f}x regressed >10% "
                    f"below baseline {b['speedup']:.2f}x")
            if e.get("idle_heavy") and e["speedup"] < IDLE_HEAVY_FLOOR:
                failures.append(
                    f"{section} {k}: idle-heavy speedup {e['speedup']:.2f}x "
                    f"below the {IDLE_HEAVY_FLOOR:.1f}x floor")

    fresh_work, base_work = busy_stepped(bench), busy_stepped(base)
    if fresh_work is not None and base_work is not None:
        if fresh_work > base_work * WORK_TOLERANCE:
            failures.append(
                f"busy-load core cycles stepped per tick {fresh_work:.3f} "
                f"grew >10% over baseline {base_work:.3f}")

    if check_stale:
        fresh_busy, base_busy = busy_mticks(bench), busy_mticks(base)
        if fresh_busy is not None and base_busy is not None:
            if fresh_busy > base_busy * STALE_FACTOR:
                failures.append(
                    f"baseline is stale: busy-load throughput {fresh_busy:.2f} "
                    f"Mticks/s is >{STALE_FACTOR:.1f}x the baseline's "
                    f"{base_busy:.2f} — a committed win was not ratcheted; "
                    f"rerun with --update-baseline")
    return failures


def update_baseline(bench, base, base_path, force):
    # Deterministic checks only: the wall-clock ratios compare against a
    # baseline possibly recorded on different hardware — refreshing them is
    # the update's job. "Don't loosen" is enforced by the busy-load ratchet.
    failures = gate_failures(bench, base, check_stale=False, check_wall_clock=False)

    fresh_busy, old_busy = busy_mticks(bench), busy_mticks(base)
    if fresh_busy is not None and old_busy is not None and not force:
        if fresh_busy < old_busy * RATCHET_TOLERANCE:
            failures.append(
                f"ratchet only moves down: fresh busy-load throughput "
                f"{fresh_busy:.2f} Mticks/s is >10% below the committed "
                f"{old_busy:.2f} (use --force to re-baseline anyway)")

    if failures:
        print("BASELINE UPDATE: REFUSED")
        for f in failures:
            print("  -", f)
        return 1

    new_base = {
        "bench": bench.get("bench", "sim_throughput"),
        "eval_insts": bench.get("eval_insts"),
        "open_loop_ticks": bench.get("open_loop_ticks"),
        "closed_loop": bench.get("closed_loop", []),
        "open_loop": bench.get("open_loop", []),
        "all_results_identical": bench.get("all_results_identical", False),
    }
    if "busy_load" in bench:
        busy = dict(bench["busy_load"])
        if fresh_busy is not None and old_busy:
            # The committed hot-path win, recorded explicitly: how much
            # faster the busy closed-loop aggregate got vs the previous
            # baseline (same-machine comparison at ratchet time).
            busy["speedup_vs_previous"] = fresh_busy / old_busy
        new_base["busy_load"] = busy
    with open(base_path, "w") as f:
        json.dump(new_base, f, indent=2, sort_keys=True)
        f.write("\n")
    win = new_base.get("busy_load", {}).get("speedup_vs_previous")
    print(f"BASELINE UPDATED: {base_path}" +
          (f" (busy-load win vs previous: {win:.2f}x)" if win else ""))
    return 0


def main(argv):
    args = list(argv[1:])
    update = force = False
    if "--update-baseline" in args:
        args.remove("--update-baseline")
        update = True
    if "--force" in args:
        args.remove("--force")
        force = True
    if not args:
        print(__doc__)
        return 2
    bench_path = args[0]
    base_path = args[1] if len(args) > 1 else DEFAULT_BASELINE
    with open(bench_path) as f:
        bench = json.load(f)
    try:
        with open(base_path) as f:
            base = json.load(f)
    except FileNotFoundError:
        if not update:
            raise
        base = {}

    if update:
        return update_baseline(bench, base, base_path, force)

    failures = gate_failures(bench, base)
    if failures:
        print("THROUGHPUT GATE: FAIL")
        for f in failures:
            print("  -", f)
        return 1
    print(f"THROUGHPUT GATE: OK ({bench_path} vs {base_path})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The metric names, units and workloads
are those of ``BENCHMARK.json``.  With ``--trace 0`` the run measures the
end-to-end metrics with no instrumentation, its times scaled to a
reference host speed by interleaved calibration loops (the unscaled host
values are printed too; the campaign's set-up probes are not scaled).  With ``--trace 1`` it runs one
untraced pass, installs the span tracer, runs the same pass traced and
reports the per-layer metrics.  Every cell's simulated outputs are checked:
sane, identical across the campaign's cold, warm and serial paths, and
equal to ``pins.json`` at the pinned seed.  Repeatability is checked by the
traced run, whose traced pass must repeat its untraced pass exactly, and by
the pins; an untraced run compares passes only when more than one fits in
its time.  A digest of the outputs is printed so two commits can be
compared at any seed.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--write-pins`` records, at the pinned seed, every cell's outputs and the
exact counters of a traced run into ``pins.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS_PATH = os.path.join(HERE, "pins.json")
PINNED_SEED = 1

#: Layer self times must add up to the traced wall time within this share.
RECONCILE_TOLERANCE = 0.02

#: Per-layer metrics that are exact (``layer_map.json``): a change in one
#: marks an algorithmic change, whatever the clock says.
with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as _fh:
    EXACT = tuple(name for name, entry in json.load(_fh)["per_layer"].items()
                  if entry.get("exact"))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def digest(outputs: dict) -> str:
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def layer_metrics(tracer, report: dict, result) -> dict:
    """The per-layer metrics of one traced run."""
    counts, program = tracer.counts, report["program"]
    layer_self = tracer.layer_self_s()
    transmits = tracer.calls("phy.channel.Channel.transmit")
    receptions = tracer.calls("phy.radio.Transceiver.begin_receive")
    arms = tracer.calls("core.CandidateTimer.arm")
    gets = tracer.calls("campaign.ResultCache.get")
    puts = tracer.calls("campaign.ResultCache.put")
    appends = tracer.calls("campaign.CampaignJournal.append")
    campaign = report.get("campaign", {})
    traced_wall = report["traced_wall_s"]
    attributed = sum(s for layer, s in layer_self.items() if layer != "campaign")
    metrics = {
        "sim.events": sum(o["events_processed"] for o in result.outputs.values()),
        "sim.schedules": (counts["sim.schedule"] + counts["sim.schedule_at"]
                          + counts["sim.schedule_many_items"]),
        "sim.cancels": counts["sim.cancel"],
        "sim.self_s": layer_self.get("sim", 0.0),
        "phy.channel.transmits": transmits,
        "phy.channel.receivers_per_tx": _ratio(receptions, transmits),
        "phy.channel.transmit_self_s": tracer.self_s(".Channel.transmit"),
        "phy.channel.move_calls": tracer.calls("phy.channel.Channel.move_nodes"),
        "phy.channel.move_s": tracer.inclusive_s(".Channel.move_nodes"),
        "phy.channel.build_s": tracer.inclusive_s(".Channel.__init__"),
        "phy.radio.receptions": receptions,
        "phy.radio.decoded_ratio": _ratio(
            tracer.calls("mac.CsmaMac._on_frame"), receptions),
        "phy.radio.self_s": layer_self.get("phy.radio", 0.0),
        "mac.sends": tracer.calls("mac.CsmaMac.send"),
        "mac.tx_attempts": program["mac.tx_attempts"],
        "mac.ack_timeouts": program["mac.ack_timeouts"],
        "mac.queue_drops": program["mac.queue_drops"],
        "mac.self_s": layer_self.get("mac", 0.0),
        "core.timer_arms": arms,
        "core.backoff_calls": sum(
            tracer.calls(name) for name in tracer.layer_of
            if name.startswith("core.") and name.endswith(".delay")),
        "core.timer_suppressed_ratio": _ratio(
            arms - tracer.calls("core.CandidateTimer._fire"), arms),
        "core.self_s": layer_self.get("core", 0.0),
        "net.rx_calls": tracer.calls_matching(".on_mac_packet",
                                              from_other_layer=True),
        "net.originated": program["net.originated"],
        "net.delivered": program["net.delivered"],
        "net.self_s": layer_self.get("net", 0.0),
        "app.self_s": layer_self.get("app", 0.0),
        "topology.placement_s": tracer.inclusive_s("topology.connected_uniform"),
        "topology.mobility_ticks": tracer.calls("topology._MobilityBase._tick"),
        "topology.mobility_self_s": tracer.self_s("topology._MobilityBase._tick"),
        "experiments.build_s": tracer.inclusive_s(
            "experiments.build_protocol_network"),
        "campaign.cache_hit_ratio": campaign.get("cache_hit_ratio", 0.0),
        "campaign.cache_get_ms": 1000.0 * _ratio(
            tracer.inclusive_s("campaign.ResultCache.get"), gets),
        "campaign.cache_put_ms": 1000.0 * _ratio(
            tracer.inclusive_s("campaign.ResultCache.put"), puts),
        "campaign.journal_append_ms": 1000.0 * _ratio(
            tracer.inclusive_s("campaign.CampaignJournal.append"), appends),
        "campaign.overhead_ms_per_cell": campaign.get("overhead_ms_per_cell", 0.0),
        "campaign.pool_efficiency": campaign.get("pool_efficiency", 0.0),
        "campaign.warm_ms_per_cell": campaign.get("warm_ms_per_cell", 0.0),
        "trace.overhead_ratio": _ratio(traced_wall, report["untraced_wall_s"]),
        "trace.reconcile_error": _ratio(abs(traced_wall - attributed),
                                        traced_wall),
    }
    if metrics["trace.reconcile_error"] > RECONCILE_TOLERANCE:
        result.problems.append(
            f"layer self times sum to {attributed:.3f} s, traced wall is "
            f"{traced_wall:.3f} s (tolerance {RECONCILE_TOLERANCE:.0%})")
    return metrics


def _load_pins() -> dict:
    if not os.path.exists(PINS_PATH):
        return {}
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_pins(workload: str, seed: int, result, exact: dict | None) -> None:
    """At the pinned seed, every cell's outputs must equal the pins; the
    exact counters are compared and any difference reported."""
    pinned = _load_pins().get(workload)
    if seed != PINNED_SEED or pinned is None:
        return
    for label, outputs in pinned["outputs"].items():
        if label in result.outputs and result.outputs[label] != outputs:
            result.failed += 1
            result.problems.append(
                f"{label}: outputs {result.outputs.get(label)} differ from "
                f"pins {outputs}")
    if exact is not None:
        changed = {k: (pinned["counters"].get(k), v) for k, v in exact.items()
                   if pinned["counters"].get(k) != v}
        print(f"exact counters vs pins: "
              f"{'identical' if not changed else changed}")


def write_pins(workload: str, outputs: dict, exact: dict) -> None:
    pins = _load_pins()
    pins[workload] = {"seed": PINNED_SEED, "digest": digest(outputs),
                      "outputs": outputs, "counters": exact}
    with open(PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program source under {os.path.join(ROOT, 'src')}; run "
              f"from the root of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.workloads import SCRATCH_DIR, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace) or args.write_pins
    if traced:
        from perfbench.tracer import SpanTracer
        tracer = SpanTracer()
        result, report = workload.traced(args.seed, tracer)
        metrics = layer_metrics(tracer, report, result)
        exact = {k: metrics[k] for k in EXACT}
        os.makedirs(SCRATCH_DIR, exist_ok=True)
        tracer.write(os.path.join(
            SCRATCH_DIR, f"spans-{args.workload}-seed{args.seed}.json"))
        if args.write_pins:
            if args.seed != PINNED_SEED:
                parser.error(f"pins are recorded at --seed {PINNED_SEED}")
            # The traced run covers the first scenario; pin every cell.
            write_pins(args.workload, workload.measure(args.seed, 0).outputs,
                       exact)
        check_pins(args.workload, args.seed, result, exact)
        print(f"exact counters digest: {digest(exact)}")
        declared = spec["per_layer"]
    else:
        result = workload.measure(args.seed, args.seconds)
        metrics = result.metrics
        check_pins(args.workload, args.seed, result, None)
        declared = spec["end_to_end"]
        print(f"samples: {result.samples}")
        print(f"host metrics (unscaled): {json.dumps(result.host_metrics)}")
        print(f"failed_ratio: {_ratio(result.failed, result.attempted)} "
              f"({result.failed}/{result.attempted} cells)")

    if not sum(o["delivered"] for o in result.outputs.values()):
        result.problems.append("no cell delivered a packet")
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    extra = sorted(set(metrics) - {m["name"] for m in declared})
    if missing or extra:
        print(f"metrics do not match BENCHMARK.json: missing {missing}, "
              f"undeclared {extra}", file=sys.stderr)
        return 1
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"output digest {args.workload} seed={args.seed}: "
          f"{digest(result.outputs)}")
    for m in declared:
        print(f"{m['name']:32s} {metrics[m['name']]:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": not result.problems and result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

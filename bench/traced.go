package main

import (
	"bytes"
	"encoding/json"
	"os"
	"time"
)

// perLayerUnits names every per-layer metric and its unit, in reporting
// order (the order of BENCHMARK.json). A metric that does not apply to a
// workload — sig.* on mesh256-prim, campaign.* on anything but
// campaign-fabric — reads 0 there.
var perLayerUnits = []struct{ name, unit string }{
	{"sig.hmac_sign_ns", "ns"}, {"sig.hmac_verify_ns", "ns"},
	{"sig.hmac_sign_allocs", "count"}, {"sig.hmac_verify_allocs", "count"},
	{"sig.ed25519_sign_ns", "ns"}, {"sig.ed25519_verify_ns", "ns"},
	{"sig.ms_per_op", "ms"}, {"sig.signs_per_op", "count"}, {"sig.verifies_per_op", "count"},

	{"core.auth_deliver_ns", "ns"}, {"core.auth_deliver_allocs", "count"},
	{"core.prim_deliver_ns", "ns"}, {"core.prim_deliver_allocs", "count"},
	{"core.self_ms_per_op", "ms"}, {"core.delivers_per_op", "count"},
	{"core.pulses_per_op", "count"}, {"core.deliver_useful_frac", "ratio"},

	{"network.bcast_inline_ns_per_msg", "ns"}, {"network.bcast_payload_ns_per_msg", "ns"},
	{"network.bcast_sharded_ns_per_msg", "ns"}, {"network.bcast_allocs_per_round", "count"},
	{"network.send_ms_per_op", "ms"}, {"network.msgs_per_op", "count"}, {"network.delivered_frac", "ratio"},

	{"sim.msg_ns_per_event", "ns"}, {"sim.timer_ns_per_event", "ns"},
	{"sim.msg_allocs_per_event", "count"}, {"sim.shards_speedup", "ratio"},
	{"sim.rest_ms_per_op", "ms"},

	{"clock.ms_per_op", "ms"}, {"clock.calls_per_op", "count"},

	{"harness.build_ms_per_op", "ms"}, {"harness.speckey_us", "us"}, {"harness.batch_speedup", "ratio"},

	{"probe.emit_noop_ns", "ns"}, {"probe.emit_collectors_ns", "ns"},
	{"probe.emit_allocs", "count"}, {"probe.events_per_op", "count"},

	{"tracelake.write_ns_per_event", "ns"}, {"tracelake.bytes_per_event", "B"},
	{"tracelake.flush_ms", "ms"}, {"tracelake.record_overhead_frac", "ratio"},
	{"tracelake.open_us", "us"}, {"tracelake.stats_us", "us"},
	{"tracelake.scan_ms", "ms"}, {"tracelake.scanrows_ms", "ms"},
	{"tracelake.pruned_query_us", "us"}, {"tracelake.replay_ms", "ms"},
	{"tracelake.scan_mevents_per_s", "Mev/s"}, {"tracelake.scan_parallel_speedup", "ratio"},
	{"tracelake.blocks_pruned_frac", "ratio"}, {"tracelake.rows_matched_frac", "ratio"},

	{"campaign.put_us", "us"}, {"campaign.get_loose_us", "us"}, {"campaign.get_segment_us", "us"},
	{"campaign.compact_ms_per_kcell", "ms"}, {"campaign.cell_bytes", "B"},
	{"campaign.expand_ms", "ms"}, {"campaign.cold_ms", "ms"}, {"campaign.resume_loose_ms", "ms"},
	{"campaign.compact_ms", "ms"}, {"campaign.resume_segment_ms", "ms"},

	{"fabric.rpc_roundtrip_us", "us"}, {"fabric.rpc_allocs", "count"},
	{"fabric.lease_server_us", "us"}, {"fabric.report_server_us", "us"},
	{"fabric.rpc_client_us", "us"}, {"fabric.rpcs_per_op", "count"},
	{"fabric.cells_per_lease", "count"}, {"fabric.worker_sim_ms_per_op", "ms"},

	{"optsync.op_ms_p90", "ms"}, {"optsync.ns_per_msg", "ns"}, {"optsync.trace_overhead_frac", "ratio"},
}

// The traced run splits its seconds two ways: the ops, each executed
// untraced and then traced, and the layer drivers.
const (
	opsShare    = 0.6
	driverShare = 0.4
	// driverLoops is how many timed loops runLayerDrivers makes; each gets
	// an equal slice of the drivers' share.
	driverLoops = 30
)

// traceFile is what -traceout writes: every traced op's spans.
type traceFile struct {
	Workload    string      `json:"workload"`
	Seed        int64       `json:"seed"`
	SampleEvery int         `json:"sample_every"`
	Ops         []*foldedOp `json:"ops"`
}

// measureTraced is the traced run behind the per-layer metrics.
//
// drivers runs the layer drivers with the given time per loop; their values
// do not depend on the workload, so a caller measuring several workloads
// may run them once.
func measureTraced(name string, cfg runConfig, drivers func(budget time.Duration) (map[string]float64, error), traceOut string) (*runResult, error) {
	res := &runResult{Workload: name, Seed: cfg.seed, Correct: true, Metrics: make(map[string]metric)}
	p, err := prepare(name, cfg)
	if err != nil {
		return nil, err
	}
	defer p.close()

	// Each op runs untraced, then traced (and, for lake-record, traced with
	// no lake writer: the base of the recording overhead), so that the
	// variants being compared see the same state of the host. Tracing
	// observes; it must not change what is simulated.
	recordsLake := false
	if rw, ok := p.w.(*runWorkload); ok {
		recordsLake = rw.lake
	}
	epoch := time.Now()
	var plain, traced, bare []opSample
	var folded []*foldedOp
	for i, deadline := 0, deadlineIn(cfg.seconds*opsShare); running(i, cfg.minOps, deadline); i++ {
		a := res.attempt(p.w, i, nil, &plain)
		tr := newOpTrace(i, epoch)
		b := res.attempt(p.w, i, tr, &traced)
		if b != nil {
			folded = append(folded, tr.fold())
		}
		if a != nil && b != nil && !bytes.Equal(a.out.record, b.out.record) {
			res.fail("traced op %d produced a different record than untraced", i)
		}
		if recordsLake {
			tr := newOpTrace(i, epoch)
			tr.withoutLake = true
			res.attempt(p.w, i, tr, &bare)
		}
	}
	if len(plain) == 0 || len(traced) == 0 {
		return res, nil
	}
	values := layerMetricsFromTrace(folded)

	plainP50 := median(wallMs(plain))
	values["optsync.op_ms_p90"] = quantile(wallMs(plain), 0.9)
	values["optsync.trace_overhead_frac"] = (median(wallMs(traced)) - plainP50) / plainP50
	if delivered := plain[0].out.counts["delivered"]; delivered > 0 {
		values["optsync.ns_per_msg"] = plainP50 * 1e6 / delivered
	}
	if len(bare) > 0 {
		base := median(wallMs(bare))
		values["tracelake.record_overhead_frac"] = (median(wallMs(traced)) - base) / base
	}

	driven, err := drivers(time.Duration(cfg.seconds * driverShare / driverLoops * float64(time.Second)))
	if err != nil {
		return nil, err
	}
	for k, v := range driven {
		values[k] = v
	}
	for _, u := range perLayerUnits {
		res.Metrics[u.name] = metric{values[u.name], u.unit}
	}

	if traceOut != "" {
		data, err := json.Marshal(traceFile{Workload: name, Seed: cfg.seed, SampleEvery: sampleEvery, Ops: folded})
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(traceOut, data, 0o644); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// layerMetricsFromTrace reduces the traced ops to the trace-sourced
// per-layer metrics. Times and counts per op are means over the ops, so
// the *_ms_per_op values still sum to the mean op time; ratios are taken
// over the sums.
func layerMetricsFromTrace(ops []*foldedOp) map[string]float64 {
	v := make(map[string]float64)
	n := float64(len(ops))
	if n == 0 {
		return v
	}
	layer := func(name string) float64 {
		sum := int64(0)
		for _, op := range ops {
			sum += op.layerNs[name]
		}
		return float64(sum) / n
	}
	stage := func(name string) (ns float64, count float64) {
		for _, op := range ops {
			ns += float64(op.stageNs[name])
			count += float64(op.stageCount[name])
		}
		return ns, count
	}
	count := func(name string) float64 {
		sum := 0.0
		for _, op := range ops {
			sum += op.Counts[name]
		}
		return sum
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	perStage := func(name string) float64 { // ns per occurrence
		ns, c := stage(name)
		return ratio(ns, c)
	}
	perOp := func(name string) float64 { // ns per op
		ns, _ := stage(name)
		return ns / n
	}

	v["sig.ms_per_op"] = layer("sig") / 1e6
	v["sig.signs_per_op"] = count("sig.signs") / n
	v["sig.verifies_per_op"] = count("sig.verifies") / n
	v["core.self_ms_per_op"] = layer("core") / 1e6
	v["core.delivers_per_op"] = count("core.delivers") / n
	v["core.pulses_per_op"] = count("core.pulses") / n
	v["core.deliver_useful_frac"] = ratio(count("core.useful_delivers"), count("core.delivers"))
	v["network.send_ms_per_op"] = layer("network.send") / 1e6
	v["network.msgs_per_op"] = count("network.msgs") / n
	v["network.delivered_frac"] = ratio(count("network.delivered"), count("network.msgs"))
	v["sim.rest_ms_per_op"] = layer("sim.rest") / 1e6
	v["clock.ms_per_op"] = layer("clock") / 1e6
	v["clock.calls_per_op"] = count("clock.calls") / n
	v["harness.build_ms_per_op"] = layer("harness") / 1e6
	v["probe.events_per_op"] = count("probe.events") / n

	v["tracelake.open_us"] = perStage("tracelake.open") / 1e3
	v["tracelake.stats_us"] = perStage("tracelake.stats") / 1e3
	v["tracelake.scan_ms"] = perStage("tracelake.scan") / 1e6
	v["tracelake.scanrows_ms"] = perStage("tracelake.scanrows") / 1e6
	v["tracelake.pruned_query_us"] = perStage("tracelake.pruned_query") / 1e3
	v["tracelake.replay_ms"] = perStage("tracelake.replay") / 1e6
	v["tracelake.blocks_pruned_frac"] = ratio(count("tracelake.blocks_pruned"), count("tracelake.blocks_total"))
	v["tracelake.rows_matched_frac"] = ratio(count("tracelake.rows_matched"), count("tracelake.rows_decoded"))

	v["campaign.expand_ms"] = perOp("campaign.expand") / 1e6
	v["campaign.cold_ms"] = perOp("campaign.cold") / 1e6
	v["campaign.resume_loose_ms"] = perOp("campaign.resume_loose") / 1e6
	v["campaign.compact_ms"] = perOp("campaign.compact") / 1e6
	v["campaign.resume_segment_ms"] = perOp("campaign.resume_segment") / 1e6

	v["fabric.lease_server_us"] = perStage("fabric.lease.server") / 1e3
	v["fabric.report_server_us"] = perStage("fabric.report.server") / 1e3
	v["fabric.rpc_client_us"] = perStage("fabric.rpc.client") / 1e3
	_, rpcs := stage("fabric.rpc.client")
	v["fabric.rpcs_per_op"] = rpcs / n
	v["fabric.cells_per_lease"] = ratio(campaignCells*n, count("fabric.leases"))
	v["fabric.worker_sim_ms_per_op"] = perOp("fabric.worker.sim") / 1e6
	return v
}

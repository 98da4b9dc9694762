package main

import (
	"math"
	"slices"
	"sort"

	"ros/internal/obs"
)

// metric is one named, unit-carrying figure of a run.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// run is everything a benchmark invocation measured: the untraced
// repetitions, the traced ones (trace mode only) and how many repetitions
// crashed. A crashed repetition counts as one failed operation.
type run struct {
	reps    []*RepResult
	traced  []*RepResult
	crashed int
}

// endToEnd are the metrics a user of the system sees, gated by bounds in
// BENCHMARK.json. Each is non-zero on every workload.
func (ru *run) endToEnd() []metric {
	reps := ru.reps
	var lat []int64
	var ops, failed, bytes int64
	var window, disc, user float64
	for _, r := range reps {
		lat = append(lat, r.ReadLatNS...)
		lat = append(lat, r.WriteLatNS...)
		bytes += r.ReadBytes + r.WriteBytes
		window += r.WindowSimS
		disc += float64(r.DiscBytes)
		user += float64(r.DiscUserBytes) / float64(r.Replicas)
	}
	ops, failed = ru.opCounts()
	return []metric{
		{"op_p50_s", "s", quantileS(lat, 0.50)},
		{"op_p99_s", "s", quantileS(lat, 0.99)},
		{"goodput_mb_per_h", "MB/h", ratio(float64(bytes)/1e6*3600, window)},
		{"ok_op_ratio", "ratio", 1 - ratio(float64(failed), float64(ops))},
		{"stored_bytes_per_user_byte", "ratio", ratio(disc, user)},
		{"host_ms_per_op", "ms", medianOf(reps, func(r *RepResult) float64 {
			return ratio(r.MeasureHostS*1e3, float64(r.Ops()))
		})},
		{"setup_s", "s", medianOf(reps, func(r *RepResult) float64 { return r.SetupHostS })},
		{"peak_heap_mb", "MB", medianOf(reps, func(r *RepResult) float64 { return float64(r.PeakHeap) / 1e6 })},
	}
}

// opCounts returns measured-phase attempts and failures over every
// repetition: errors, sheds, wrong bytes, acknowledged writes lost or
// corrupted at read-back, and one per crashed repetition.
func (ru *run) opCounts() (ops, failed int64) {
	for _, r := range ru.reps {
		ops += r.Ops()
		failed += r.Failed() + r.VerifyLost + r.VerifyWrong
	}
	return ops + int64(ru.crashed), failed + int64(ru.crashed)
}

// perLayer are the unbounded metrics that explain the end-to-end ones: the
// per-operation-kind latencies and rates, Obs deltas per layer, the
// simulator's own cost, and — from the traced repetitions — critical-path
// phases and host CPU per package.
func (ru *run) perLayer() []metric {
	reps := ru.reps
	c := map[string]int64{}
	h := map[string]histDelta{}
	var readLat, writeLat []int64
	var simS, burned, armNS float64
	var events, ops, lagNS, bufMax int64
	for _, r := range reps {
		for k, v := range r.Counters {
			c[k] += v
		}
		for k, d := range r.Hists {
			h[k] = mergeHist(h[k], d)
		}
		readLat = append(readLat, r.ReadLatNS...)
		writeLat = append(writeLat, r.WriteLatNS...)
		simS += r.MeasureSimS
		burned += float64(r.BurnedInPhase)
		armNS += float64(r.ArmBusyNS)
		events += r.Events
		ops += r.Ops()
		lagNS = max(lagNS, r.GenLagMaxNS)
		bufMax = max(bufMax, r.BufferPctMax)
	}
	allOps, failed := ru.opCounts()
	q := func(name string, p float64) float64 {
		d := h[name]
		return float64(obs.BucketQuantile(d.Buckets, d.Count, p)) / 1e9
	}
	cnt := func(name string) float64 { return float64(c[name]) }
	out := []metric{
		{"read_p50_s", "s", quantileS(readLat, 0.50)},
		{"read_p99_s", "s", quantileS(readLat, 0.99)},
		{"write_ack_p50_s", "s", quantileS(writeLat, 0.50)},
		{"write_ack_p99_s", "s", quantileS(writeLat, 0.99)},
		{"ingest_mb_per_h", "MB/h", ratio(burned/1e6*3600, simS)},
		{"failed_op_ratio", "ratio", ratio(float64(failed), float64(allOps))},
		{"gen_lag_s", "s", float64(lagNS) / 1e9},
		{"crashed_reps", "count", float64(ru.crashed)},

		{"sim.events", "count", float64(events)},
		{"sim.host_ns_per_event", "ns", medianOf(reps, func(r *RepResult) float64 {
			return ratio(r.MeasureHostS*1e9, float64(r.Events))
		})},
		{"sim.sim_s_per_host_s", "s/s", medianOf(reps, func(r *RepResult) float64 {
			return ratio(r.MeasureSimS, r.MeasureHostS)
		})},

		{"sched.wait.interactive.p50_s", "s", q("sched.wait.interactive", 0.50)},
		{"sched.wait.interactive.p99_s", "s", q("sched.wait.interactive", 0.99)},
		{"sched.wait.burn.p99_s", "s", q("sched.wait.burn", 0.99)},
		{"sched.coalesced_fetches", "count", cnt("sched.coalesced_fetches")},
		{"sched.evictions", "count", cnt("sched.evictions")},
		{"sched.eviction_skips_demand", "count", cnt("sched.eviction_skips_demand")},
		{"sched.starvation_kicks", "count", cnt("sched.starvation_kicks")},
		{"sched.arm_travel_layers", "count", cnt("sched.arm_travel_layers")},

		{"rack.loads", "count", cnt("rack.loads")},
		{"rack.load.latency.p50_s", "s", q("rack.load.latency", 0.50)},
		{"rack.arm_busy_s", "s", armNS / 1e9},

		{"optical.bytes_read", "bytes", cnt("optical.bytes_read")},
		{"optical.read.latency.p99_s", "s", q("optical.read.latency", 0.99)},
		{"optical.burns", "count", cnt("optical.burns")},
		{"optical.burn.latency.p50_s", "s", q("optical.burn.latency", 0.50)},

		{"olfs.read_hit_ratio", "ratio", ratio(cnt("olfs.cache_hits"), cnt("olfs.cache_hits")+cnt("olfs.cache_misses"))},
		{"olfs.files_per_fetch", "ratio", ratio(cnt("olfs.cache_misses"), cnt("olfs.fetch_tasks"))},
		{"olfs.fetch.latency.p50_s", "s", q("olfs.fetch.latency", 0.50)},
		{"olfs.fetch.latency.p99_s", "s", q("olfs.fetch.latency", 0.99)},
		{"olfs.join_retries", "count", cnt("olfs.join_retries")},
		{"olfs.stale_sources", "count", cnt("olfs.stale_sources")},
		{"olfs.parity.latency.p50_s", "s", q("olfs.parity.latency", 0.50)},

		{"writepath.admit_wait.interactive.p99_s", "s", q("writepath.admit_wait.interactive", 0.99)},
		{"writepath.shed_ratio", "ratio", ratio(cnt("writepath.shed_writes"), cnt("writepath.shed_writes")+cnt("writepath.admitted"))},
		{"writepath.images_per_group", "ratio", ratio(float64(h["writepath.batch_images"].Sum), float64(h["writepath.batch_images"].Count))},
		{"writepath.burn_groups", "count", cnt("writepath.burn_groups")},
		{"writepath.buffer_pct.max", "%", float64(bufMax)},

		{"buffer.flush_amplification", "ratio", ratio(cnt("buffer.bytes_flushed"), cnt("buffer.bytes_written"))},
		{"mv.ops_per_op", "ratio", ratio(cnt("mv.ops"), float64(ops))},
		{"mv.op.latency.p50_s", "s", q("mv.op.latency", 0.50)},

		{"cluster.replica_reads", "count", cnt("cluster.replica_reads")},
		{"cluster.secondary_reads", "count", cnt("cluster.secondary_reads")},
		{"cluster.route_errors", "count", cnt("cluster.route_errors")},
		{"cluster.imbalance_pct", "%", medianOf(reps, func(r *RepResult) float64 { return r.ImbalancePct })},
	}
	return append(out, ru.tracedMetrics()...)
}

// critPhases are the critical-path phases reported as crit.<phase>_s; any
// other phase is summed into crit.other_s.
var critPhases = []string{
	"sched.wait", "rack.arm_move", "rack.tray_load", "rack.tray_unload",
	"optical.spinup", "optical.read", "olfs.fetch", "olfs.read", "olfs.read.part",
	"olfs.write", "olfs.op.read", "olfs.op.write", "olfs.op.stat",
	"olfs.op.mknod", "olfs.op.close", "writepath.admit",
}

// tracedMetrics reports the traced repetitions: mean critical-path time
// per op by phase, host CPU per package per op, and the tracing overhead.
func (ru *run) tracedMetrics() []metric {
	crit := map[string]int64{}
	cpu := map[string]int64{}
	var critOps, ops int64
	for _, r := range ru.traced {
		for k, v := range r.CritNS {
			if !slices.Contains(critPhases, k) {
				k = "other"
			}
			crit[k] += v
		}
		for k, v := range r.CPUNS {
			cpu[k] += v
		}
		critOps += r.CritOps
		ops += r.Ops()
	}
	var out []metric
	for _, ph := range append(append([]string(nil), critPhases...), "other") {
		out = append(out, metric{"crit." + ph + "_s", "s", ratio(float64(crit[ph]), float64(critOps)) / 1e9})
	}
	for _, pkg := range append(append([]string(nil), cpuPackages...), "gc", "other") {
		out = append(out, metric{"host.cpu." + pkg, "ms", ratio(float64(cpu[pkg]), float64(ops)) / 1e6})
	}
	hostMS := func(r *RepResult) float64 { return ratio(r.MeasureHostS*1e3, float64(r.Ops())) }
	overhead := 0.0
	if len(ru.traced) > 0 && len(ru.reps) > 0 {
		overhead = (medianOf(ru.traced, hostMS)/medianOf(ru.reps, hostMS) - 1) * 100
	}
	return append(out, metric{"obs.trace_overhead_pct", "%", overhead})
}

func mergeHist(a, b histDelta) histDelta {
	out := histDelta{Count: a.Count + b.Count, Sum: a.Sum + b.Sum}
	n := max(len(a.Buckets), len(b.Buckets))
	out.Buckets = make([]int64, n)
	for i := range out.Buckets {
		if i < len(a.Buckets) {
			out.Buckets[i] += a.Buckets[i]
		}
		if i < len(b.Buckets) {
			out.Buckets[i] += b.Buckets[i]
		}
	}
	return out
}

// quantileS is the nearest-rank q-quantile of sim-time nanoseconds, in s.
func quantileS(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(i, 0)]) / 1e9
}

func medianOf(reps []*RepResult, f func(*RepResult) float64) float64 {
	if len(reps) == 0 {
		return 0
	}
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	sort.Float64s(v)
	if n := len(v); n%2 == 1 {
		return v[n/2]
	} else {
		return (v[n/2-1] + v[n/2]) / 2
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

package main

import (
	"bufio"
	"math"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"pathdump/internal/obs"
)

// metricDef is one reported metric. moves names the end-to-end metric
// and workload a per-layer metric is expected to move.
type metricDef struct {
	name, unit, better, moves string
}

// endToEnd are the metrics of an untraced run. Every workload reports
// each of them; "op" is the workload's unit of work: a query for fanout
// and tree-scan, a simulator event (throughput, allocations) or one
// virtual millisecond of simulation (latency) for ingest-detect.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", ""},
	{"heap_mb", "MB", "lower", ""},
	{"ops_per_s", "1/s", "higher", ""},
	{"latency_p50_ms", "ms", "lower", ""},
	{"latency_p99_ms", "ms", "lower", ""},
	{"allocs_per_op", "count", "lower", ""},
}

// perLayer are the metrics of a traced run, one layer each, named by
// the module they time. Layers a workload does not reach report 0.
var perLayer = []metricDef{
	{"netsim.events", "count", "lower", "ops_per_s and allocs_per_op on ingest-detect; no change on fanout and tree-scan"},
	{"netsim.run_s", "s", "lower", "ops_per_s, latency_p50_ms and latency_p99_ms on ingest-detect"},
	{"netsim.self_s", "s", "lower", "ops_per_s on ingest-detect"},
	{"netsim.pending_max", "count", "lower", "allocs_per_op and heap on ingest-detect"},
	{"netsim.drops", "count", "lower", "detection latency on ingest-detect"},
	{"agent.receive_calls", "count", "lower", "delivered packets per second on ingest-detect"},
	{"agent.receive_s", "s", "lower", "delivered packets per second and ops_per_s on ingest-detect"},
	{"agent.records_exported", "count", "lower", "ops_per_s on ingest-detect"},
	{"agent.cache_hit_ratio", "ratio", "higher", "delivered packets per second on ingest-detect"},
	{"agent.trigger_runs", "count", "lower", "detection latency on ingest-detect"},
	{"agent.trigger_records_scanned", "count", "lower", "detection latency on ingest-detect"},
	{"agent.trigger_lag_records", "count", "lower", "detection latency on ingest-detect"},
	{"tib.add_calls", "count", "lower", "setup_s and heap_mb on tree-scan"},
	{"tib.add_s", "s", "lower", "setup_s on tree-scan"},
	{"tib.seals", "count", "lower", "setup_s and heap_mb on tree-scan"},
	{"tib.bytes_per_record", "B", "lower", "heap_mb on tree-scan"},
	{"tib.segments_scanned", "count", "lower", "latency_p50_ms on tree-scan"},
	{"tib.segments_pruned", "count", "higher", "latency_p50_ms on tree-scan"},
	{"tib.prune_ratio", "ratio", "higher", "latency_p50_ms on tree-scan"},
	{"query.exec_calls", "count", "lower", "latency and ops_per_s on tree-scan; a small share on fanout"},
	{"query.exec_s", "s", "lower", "latency_p50_ms, latency_p99_ms and ops_per_s on tree-scan; a small share on fanout"},
	{"rpc.requests.query", "count", "lower", "latency_p50_ms on tree-scan (one per host per query)"},
	{"rpc.requests.batchquery", "count", "lower", "latency_p50_ms on fanout (one per daemon per query)"},
	{"rpc.roundtrip_s", "s", "lower", "latency_p50_ms and allocs_per_op on fanout; a small share on tree-scan"},
	{"rpc.serve_self_s", "s", "lower", "latency_p50_ms and allocs_per_op on fanout"},
	{"rpc.response_bytes", "B", "lower", "latency_p50_ms and allocs_per_op on fanout"},
	{"wire.bytes_per_record", "B", "lower", "latency_p50_ms and allocs_per_op on fanout"},
	{"wire.stream_s", "s", "lower", "the records op's latency on tree-scan"},
	{"controller.execute_s", "s", "lower", "latency_p50_ms and latency_p99_ms on fanout and tree-scan"},
	{"controller.merge_s", "s", "lower", "latency_p99_ms on fanout; the tree merge on tree-scan"},
	{"controller.fanout_self_s", "s", "lower", "latency_p99_ms on fanout"},
	{"controller.fanout_overlap", "ratio", "higher", "latency_p50_ms on fanout (1 = round trips serialised)"},
	{"controller.hedged", "count", "lower", "latency_p99_ms on fanout"},
	{"controller.retried", "count", "lower", "latency_p99_ms on fanout"},
	{"alarms.received", "count", "lower", "detection latency on ingest-detect"},
	{"alarms.admitted", "count", "lower", "detection latency on ingest-detect"},
	{"alarms.delivery_p99_ms", "ms", "lower", "detection latency on ingest-detect"},
	{"go.gc_cycles", "count", "lower", "allocs_per_op and latency_p99_ms on every workload"},
	{"go.alloc_bytes_per_op", "B", "lower", "allocs_per_op on every workload"},
	{"trace.overhead", "ratio", "lower", "none: the share of ops_per_s the timing wrappers cost"},
	{"trace.spans", "count", "lower", "none: spans the traced run recorded"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for no samples). It sorts xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// heapMB returns the live heap after a full collection, in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// promSum adds up the samples of one metric in a registry's exposition
// whose label set contains every given label ("key=\"value\"").
func promSum(reg *obs.Registry, name string, labels ...string) float64 {
	var sum float64
	sc := bufio.NewScanner(strings.NewReader(reg.Expose()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		series := line[:sp]
		base, lbl, _ := strings.Cut(series, "{")
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(lbl, l)
		}
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			sum += v
		}
	}
	return sum
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

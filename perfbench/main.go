// Command perfbench is the repository benchmark. It runs one of three
// workloads against the real program, checks every answer against its
// own copy of the inputs, and prints its metrics by name and unit; the
// last line of its output is one JSON object.
//
//	perfbench --workload fanout|tree-scan|ingest-detect --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it runs the workload twice, untraced and then under the
// benchmark's timing wrappers, reports the per-layer metrics of the
// traced run and their cost, and writes the ledger and the spans under
// .bench_build/perfbench. Run it through run.sh, which builds it inside
// the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"pathdump/internal/topology"
)

// ledgerDir receives the ledgers and spans of traced runs, relative to
// the directory the benchmark runs in.
const ledgerDir = ".bench_build/perfbench"

// Closed-loop shape of the query workloads.
const (
	clients     = 2
	warmup      = time.Second
	setupRounds = 9
)

// result is one invocation's outcome.
type result struct {
	correct   bool
	attempted int
	failed    int
	errs      []string
	metrics   map[string]float64
	// table holds extra human-readable lines: the workload's own names
	// for its metrics, sample counts and the input digest.
	table []string
}

func (r *result) fail(err error) {
	r.correct = false
	r.errs = append(r.errs, err.Error())
}

func (r *result) note(format string, a ...any) {
	r.table = append(r.table, fmt.Sprintf(format, a...))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "fanout, tree-scan or ingest-detect")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	secs := fs.Int("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer ledger")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	d := time.Duration(*secs) * time.Second
	var (
		res *result
		err error
	)
	switch *wl {
	case "fanout", "tree-scan":
		if *trace == 1 {
			res, err = traceQueries(*wl, *seed, d, ledgerDir)
		} else {
			res, err = runQueries(*wl, *seed, d)
		}
	case "ingest-detect":
		if *trace == 1 {
			res, err = traceIngest(*seed, d, ledgerDir)
		} else {
			res, err = runIngest(*seed, d)
		}
	default:
		err = fmt.Errorf("unknown workload %q", *wl)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	if err := report(stdout, *wl, res, defs); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, e := range res.errs {
		fmt.Fprintln(stderr, "perfbench: wrong answer:", e)
	}
	if !res.correct {
		return 1
	}
	return 0
}

// report prints the human-readable table, then the result line.
func report(w io.Writer, wl string, res *result, defs []metricDef) error {
	fmt.Fprintf(w, "workload %s\n", wl)
	for _, l := range res.table {
		fmt.Fprintf(w, "  %s\n", l)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]val, len(defs))
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, v, d.unit)
		m[d.name] = val{v, d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{res.correct, res.attempted, res.failed, m})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// queryWorkload is a query workload's fixed parts: the layout, its
// ops with their expected answers, and the input digest.
type queryWorkload struct {
	topo   *topology.Topology
	spec   fleetSpec
	ops    []opMix
	digest string
	seed   int64
}

func newQueryWorkload(name string, seed int64) (*queryWorkload, error) {
	topo, err := topology.FatTree(fatTreeK)
	if err != nil {
		return nil, err
	}
	w := &queryWorkload{topo: topo, seed: seed}
	if name == "fanout" {
		w.spec = fanoutSpec(topo)
	} else {
		w.spec = treeSpec(topo)
	}
	recs := genQueryInputs(topo, w.spec, seed)
	o := newOracle(w.spec.hosts(), recs)
	if name == "fanout" {
		w.ops = fanoutOps(o)
	} else {
		w.ops = treeOps(topo, o, seed)
	}
	w.digest = digest(w.spec.hosts(), recs)
	return w, nil
}

// setup generates the inputs and starts the fleet, rounds times, and
// returns the last fleet with each round's wall time. Every round
// starts from a collected heap.
func (w *queryWorkload) setup(rounds int) (*fleet, []float64, error) {
	var fl *fleet
	var times []float64
	for i := 0; i < rounds; i++ {
		if fl != nil {
			fl.close()
			fl = nil
		}
		runtime.GC()
		t0 := time.Now()
		f, err := startFleet(w.topo, w.spec, genQueryInputs(w.topo, w.spec, w.seed), nil, nil)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		fl = f
	}
	return fl, times, nil
}

// measure warms the fleet up, then runs the closed loop for d.
func (w *queryWorkload) measure(fl *fleet, d time.Duration, tr *tracer, res *result) loopStats {
	warm := fl.closedLoop(warmup, clients, w.ops, w.seed, tr)
	ls := fl.closedLoop(d, clients, w.ops, w.seed, tr)
	for _, s := range []loopStats{warm, ls} {
		res.attempted += s.attempted
		res.failed += s.failed
		if s.firstErr != nil {
			res.fail(s.firstErr)
		}
	}
	if ls.attempted == 0 {
		res.fail(errNoWork)
	}
	return ls
}

// latencies returns the mean over ops of each op's median, and the
// 99th percentile of all queries. Averaging per-op medians keeps the
// figure off the boundary between two ops of a round-robin mix.
func latencies(ls loopStats) (p50, p99 float64) {
	var all []float64
	for _, l := range ls.lat {
		p50 += quantile(l, 0.5)
		all = append(all, l...)
	}
	return p50 / float64(len(ls.lat)), quantile(all, 0.99)
}

func completed(ls loopStats) int { return ls.attempted - ls.failed }

// windowRates splits d into n equal windows and formats each window's
// completions per second, to show how steady a run was.
func windowRates(done []float64, d time.Duration, n int) string {
	w := d.Seconds() / float64(n)
	counts := make([]int, n)
	for _, t := range done {
		counts[min(int(t/w), n-1)]++
	}
	var b strings.Builder
	for _, c := range counts {
		fmt.Fprintf(&b, " %.4g", float64(c)/w)
	}
	return b.String()
}

func runQueries(name string, seed int64, d time.Duration) (*result, error) {
	w, err := newQueryWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	res := &result{correct: true, metrics: map[string]float64{}}
	fl, setups, err := w.setup(setupRounds)
	if err != nil {
		return nil, err
	}
	defer fl.close()
	heap := heapMB()
	ls := w.measure(fl, d, nil, res)
	p50, p99 := latencies(ls)
	qps := float64(completed(ls)) / ls.wall.Seconds()
	apq := ratio(float64(ls.mallocs), float64(ls.attempted))
	res.metrics["setup_s"] = median(setups)
	res.metrics["heap_mb"] = heap
	res.metrics["ops_per_s"] = qps
	res.metrics["latency_p50_ms"] = p50
	res.metrics["latency_p99_ms"] = p99
	res.metrics["allocs_per_op"] = apq

	res.note("input digest %s (%d hosts on %d daemons, %d records per host)", w.digest, len(fl.hosts), len(w.spec.daemons), w.spec.perHost)
	res.note("error_rate %.6g (%d failed of %d attempted)", ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	res.note("queries_per_s %.6g 1/s (%d clients, closed loop, %v)", qps, clients, d)
	for i, op := range w.ops {
		l := ls.lat[i]
		res.note("%-8s query_p50_ms %.4g  query_p99_ms %.4g  (n=%d)", op.name, quantile(l, 0.5), quantile(l, 0.99), len(l))
	}
	res.note("allocs_per_query %.6g", apq)
	res.note("queries_per_s by fifth of the run: %s", windowRates(ls.done, d, 5))
	return res, nil
}

// ingestSimSeconds is about how long one ingest-detect simulation takes
// on a 2-CPU x86 box; a run simulates seconds/ingestSimSeconds of them.
const ingestSimSeconds = 4

// ingestConfigs returns the simulations of one ingest-detect run. Each
// has its own seed derived from the run's seed, so the run's inputs
// depend only on its seed and length, never on how fast the program is.
func ingestConfigs(seed int64, d time.Duration) []ingestConfig {
	n := max(1, int(d/time.Second)/ingestSimSeconds)
	out := make([]ingestConfig, n)
	for i := range out {
		out[i] = defaultIngest(seed*1009 + int64(i))
	}
	return out
}

func runIngest(seed int64, d time.Duration) (*result, error) {
	cfgs := ingestConfigs(seed, d)
	res := &result{correct: true, metrics: map[string]float64{}}
	var setups, heaps, evps, ppps, apes, detWall, detVirt, busy []float64
	var digests []string
	for _, cfg := range cfgs {
		runtime.GC()
		t0 := time.Now()
		r, err := setupIngest(cfg, nil, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		heaps = append(heaps, heapMB())
		o, err := r.run()
		res.attempted++
		if err != nil {
			res.failed++
			res.fail(err)
		}
		digests = append(digests, cfg.digest())
		res.note("seed %d: %s", cfg.seed, summary(o))
		evps = append(evps, float64(o.events)/o.runWall.Seconds())
		ppps = append(ppps, float64(o.delivered)/o.runWall.Seconds())
		apes = append(apes, ratio(float64(o.mallocs), float64(o.events)))
		detWall = append(detWall, float64(o.detectWall)/1e6)
		busy = append(busy, o.busyMs...)
		detVirt = append(detVirt, float64(o.detectVirt)/1e6)
	}
	res.metrics["setup_s"] = median(setups)
	res.metrics["heap_mb"] = median(heaps)
	res.metrics["ops_per_s"] = median(evps)
	res.metrics["latency_p50_ms"] = quantile(busy, 0.5)
	res.metrics["latency_p99_ms"] = quantile(busy, 0.99)
	res.metrics["allocs_per_op"] = median(apes)

	c := cfgs[0]
	res.note("input digests %s (k=%d, load %.2f, %d faults at %v, horizon %v)", strings.Join(digests, ","), c.k, c.load, c.k/2, c.faultAt, c.horizon)
	res.note("error_rate %.6g (%d failed of %d faults)", ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
	res.note("sim_events_per_s %.6g 1/s", median(evps))
	res.note("delivered_pkts_per_s %.6g 1/s", median(ppps))
	res.note("allocs_per_event %.6g", median(apes))
	res.note("detect_virtual_ms %v ms", detVirt)
	res.note("detect_wall_ms p50 %.6g ms, max %.6g ms (n=%d simulations)", median(detWall), slices.Max(detWall), len(detWall))
	res.note("wall ms per virtual ms while traffic starts: p50 %.4g, p99 %.4g (n=%d)", quantile(busy, 0.5), quantile(busy, 0.99), len(busy))
	return res, nil
}

// summary is the deterministic part of an ingest outcome.
func summary(o ingestOutcome) string {
	return fmt.Sprintf("events %d, packets %d, drops %d, records %d, alarms %d, detect_virtual_ms %.6g",
		o.events, o.delivered, o.drops, o.records, o.admitted, float64(o.detectVirt)/1e6)
}

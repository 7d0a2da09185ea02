package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"time"

	"pathdump"
	"pathdump/internal/alarms"
	"pathdump/internal/obs"
	"pathdump/internal/types"
	"pathdump/internal/workload"
)

// ingestConfig fixes one ingest-detect simulation.
type ingestConfig struct {
	k            int
	load         float64
	trafficUntil types.Time // no new flows after this
	faultAt      types.Time // blackholes go up here
	horizon      types.Time // the run stops here
	slice        types.Time // virtual time per Sim.Run call
	seed         int64
}

func defaultIngest(seed int64) ingestConfig {
	return ingestConfig{
		k:            fatTreeK,
		load:         0.3,
		trafficUntil: 200 * types.Millisecond,
		faultAt:      100 * types.Millisecond,
		horizon:      1900 * types.Millisecond,
		slice:        types.Millisecond,
		seed:         seed,
	}
}

// faults are the directed agg→core links the run blackholes: one per
// aggregation position, in different pods.
func (c ingestConfig) faults(cl *pathdump.Cluster) []types.LinkID {
	half := c.k / 2
	var out []types.LinkID
	for j := 0; j < half; j++ {
		out = append(out, types.LinkID{A: cl.Topo.AggID(2*j%c.k, j), B: cl.Topo.CoreID(j*half + j%half)})
	}
	return out
}

// digest identifies the ingest inputs: the configuration the traffic,
// monitors and faults are generated from.
func (c ingestConfig) digest() string {
	h := sha256.Sum256([]byte(fmt.Sprintf("%+v", c)))
	return hex.EncodeToString(h[:8])
}

// ingestRun is one simulation, set up and ready to run.
type ingestRun struct {
	cfg    ingestConfig
	cl     *pathdump.Cluster
	sub    *alarms.Subscription
	faults []types.LinkID

	tr      *tracer
	slicePt int64 // current slice span id, read by the receive wrappers

	mu       sync.Mutex // guards receipts
	receipts []receipt
	subDone  chan struct{}
}

type receipt struct {
	e  alarms.Entry
	at time.Time
}

// ingestOutcome is what one simulation produced.
type ingestOutcome struct {
	events     int
	delivered  uint64
	drops      uint64
	faultDrops uint64
	records    int
	admitted   int
	poorBefore int
	detected   bool
	detectVirt types.Time
	detectWall time.Duration
	runWall    time.Duration // wall time inside Sim.Run
	busyMs     []float64     // wall ms per slice while traffic starts
	pendingMax int
	mallocs    uint64
	allocB     uint64
	gcs        uint32
	lagSum     float64 // trigger lag samples, summed over hosts
	lagN       int
	delivMs    []float64 // alarm delivery latencies
}

// setupIngest builds the k-ary fat-tree cluster, installs a POOR_PERF
// monitor and a path-conformance check on every host, and schedules
// web-search traffic from every host.
func setupIngest(cfg ingestConfig, tr *tracer, reg *obs.Registry) (*ingestRun, error) {
	cl, err := pathdump.NewFatTree(cfg.k, pathdump.Config{Net: pathdump.NetConfig{Seed: cfg.seed}})
	if err != nil {
		return nil, err
	}
	if _, err := cl.InstallTCPMonitor(3, 50*types.Millisecond); err != nil {
		return nil, fmt.Errorf("install TCP monitor: %w", err)
	}
	// Fat-tree paths have at most five switches, so this check never
	// fires; it keeps the incremental trigger path busy.
	if _, err := cl.InstallPathConformance(6, nil, nil, 50*types.Millisecond); err != nil {
		return nil, fmt.Errorf("install conformance check: %w", err)
	}
	hosts := cl.HostIDs()
	gen, err := workload.NewGenerator(cl.Sim, cl.Stacks, workload.GenConfig{
		Sources: hosts, Dests: hosts,
		Load: cfg.load, LinkBps: cl.Sim.Config().BandwidthBps,
		Dist: workload.WebSearch(), Until: cfg.trafficUntil, Seed: cfg.seed,
	})
	if err != nil {
		return nil, err
	}
	gen.Start()
	r := &ingestRun{cfg: cfg, cl: cl, faults: cfg.faults(cl), tr: tr, subDone: make(chan struct{})}
	if tr != nil {
		for _, h := range hosts {
			cl.Sim.SetReceiver(h, &timedReceiver{inner: cl.Agents[h], tr: tr, parent: &r.slicePt})
		}
	}
	if reg != nil {
		var mu sync.Mutex // the simulation runs on the scraping goroutine
		for _, h := range hosts {
			cl.Agents[h].RegisterMetrics(reg, &mu)
		}
		cl.Ctrl.RegisterMetrics(reg)
	}
	// Sized above any run's admitted alarms, so none is dropped.
	r.sub = cl.Ctrl.SubscribeAlarms(1 << 16)
	go func() {
		defer close(r.subDone)
		for e := range r.sub.C() {
			at := time.Now()
			r.mu.Lock()
			r.receipts = append(r.receipts, receipt{e, at})
			r.mu.Unlock()
		}
	}()
	return r, nil
}

// run simulates to the horizon in fixed slices, blackholing the fault
// links at faultAt, and attributes the first POOR_PERF alarm raised
// after the fault to it.
func (r *ingestRun) run() (ingestOutcome, error) {
	var out ingestOutcome
	sim := r.cl.Sim
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var faultWall time.Time
	faulted := false
	for n := 0; sim.Now() < r.cfg.horizon; n++ {
		if !faulted && sim.Now() >= r.cfg.faultAt {
			faultWall = time.Now()
			for _, l := range r.faults {
				r.cl.SetBlackhole(l.A, l.B, true)
			}
			faulted = true
		}
		until := min(sim.Now()+r.cfg.slice, r.cfg.horizon)
		var s0 int64
		if r.tr != nil {
			r.slicePt = r.tr.newID()
			s0 = r.tr.now()
		}
		t0 := time.Now()
		out.events += sim.Run(until)
		el := time.Since(t0)
		if r.tr != nil {
			r.tr.add(span{name: "netsim.run", id: r.slicePt, start: s0, end: r.tr.now()})
		}
		out.runWall += el
		if until <= r.cfg.trafficUntil {
			out.busyMs = append(out.busyMs, float64(el)/1e6)
		}
		out.pendingMax = max(out.pendingMax, sim.Pending())
		if n%10 == 0 {
			out.lagSum += r.triggerLag()
			out.lagN++
		}
	}
	runtime.ReadMemStats(&ms1)
	out.mallocs = ms1.Mallocs - ms0.Mallocs
	out.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	out.gcs = ms1.NumGC - ms0.NumGC
	r.sub.Close()
	<-r.subDone

	st := sim.Stats()
	out.delivered = st.Delivered
	out.drops = st.TotalDrops()
	for _, l := range r.faults {
		out.faultDrops += st.LinkDrops(l.A, l.B)
	}
	for _, a := range r.cl.Agents {
		out.records += a.Store.Len()
	}
	out.admitted = len(r.receipts)
	for _, rc := range r.receipts {
		out.delivMs = append(out.delivMs, float64(rc.at.Sub(rc.e.FirstAt))/1e6)
		if rc.e.Alarm.Reason != types.ReasonPoorPerf {
			continue
		}
		if rc.e.Alarm.At < r.cfg.faultAt {
			out.poorBefore++
			continue
		}
		if !out.detected {
			out.detected = true
			out.detectVirt = rc.e.Alarm.At - r.cfg.faultAt
			out.detectWall = rc.at.Sub(faultWall)
		}
	}
	return out, out.check()
}

// check is the ingest oracle: traffic flowed, the fault dropped
// packets, no POOR_PERF alarm came before the fault (else the first one
// after it could not be attributed), and one came after it.
func (o *ingestOutcome) check() error {
	switch {
	case o.delivered == 0:
		return fmt.Errorf("ingest: no packet delivered")
	case o.faultDrops == 0:
		return fmt.Errorf("ingest: the blackholed links dropped nothing")
	case o.poorBefore > 0:
		return fmt.Errorf("ingest: %d POOR_PERF alarms before the fault", o.poorBefore)
	case !o.detected:
		return fmt.Errorf("ingest: no POOR_PERF alarm after the fault")
	}
	return nil
}

// triggerLag sums, over hosts with installed queries, how many TIB
// records their furthest-behind trigger has yet to scan.
func (r *ingestRun) triggerLag() float64 {
	var lag float64
	for _, a := range r.cl.Agents {
		n, _, _, wm := a.TriggerTotals()
		if n > 0 {
			lag += float64(a.Store.LastSeq() - wm)
		}
	}
	return lag
}

// agentCounts totals the agents' and their stores' own counters.
type agentCounts struct {
	hits, misses, seals, trigRuns, trigScanned uint64
	segScanned, segPruned                      uint64
	bytes                                      int64
	records                                    int
}

func (c *agentCounts) add(o agentCounts) {
	c.hits += o.hits
	c.misses += o.misses
	c.seals += o.seals
	c.trigRuns += o.trigRuns
	c.trigScanned += o.trigScanned
	c.segScanned += o.segScanned
	c.segPruned += o.segPruned
	c.bytes += o.bytes
	c.records += o.records
}

// counts reads the agents' and stores' own counters after a run.
func (r *ingestRun) counts() agentCounts {
	var c agentCounts
	for _, a := range r.cl.Agents {
		_, runs, sc, _ := a.TriggerTotals()
		s, p := a.Store.SegmentStats()
		c.add(agentCounts{
			hits: a.Cache.Hits, misses: a.Cache.Misses, seals: a.Store.Seals(),
			trigRuns: runs, trigScanned: sc, segScanned: s, segPruned: p,
			bytes: a.Store.SizeBytes(), records: a.Store.Len(),
		})
	}
	return c
}

// sameOutcome reports whether two runs of one seed behaved identically.
func sameOutcome(a, b ingestOutcome) bool {
	return a.events == b.events && a.delivered == b.delivered && a.records == b.records &&
		a.admitted == b.admitted && a.detectVirt == b.detectVirt && a.drops == b.drops
}

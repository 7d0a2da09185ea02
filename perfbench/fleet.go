package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"pathdump/internal/controller"
	"pathdump/internal/obs"
	"pathdump/internal/query"
	"pathdump/internal/rpc"
	"pathdump/internal/tib"
	"pathdump/internal/topology"
	"pathdump/internal/types"
)

// fleetSpec is one query workload: which hosts each daemon serves, how
// many records each host holds, and how queries are issued.
type fleetSpec struct {
	daemons [][]types.HostID
	perHost int
	// fanouts selects ExecuteTree with these fan-outs; nil selects
	// direct Execute.
	fanouts []int
}

func (s fleetSpec) hosts() []types.HostID {
	var out []types.HostID
	for _, d := range s.daemons {
		out = append(out, d...)
	}
	return out
}

// segmentSpan seals a TIB segment once it covers this much virtual time,
// as an agent with a 32 s retention does (Retention/8), so windowed
// queries can prune whole segments.
const segmentSpan = 4 * types.Second

// fleet is a running deployment: agent daemons serving generated TIBs
// over loopback HTTP, and a controller in front of them.
type fleet struct {
	spec   fleetSpec
	hosts  []types.HostID
	stores map[types.HostID]*tib.Store
	srvs   []*http.Server
	wg     sync.WaitGroup
	ctrl   *controller.Controller
}

// startFleet fills one TIB per host with recs and serves them from
// in-process MultiAgentServer daemons. With a tracer, the daemons, the
// stores and the controller's HTTP client are wrapped in timing
// wrappers; with a registry, the daemons and the controller export
// their own metrics on it.
func startFleet(topo *topology.Topology, spec fleetSpec, recs map[types.HostID][]types.Record, tr *tracer, reg *obs.Registry) (*fleet, error) {
	f := &fleet{spec: spec, hosts: spec.hosts(), stores: make(map[types.HostID]*tib.Store)}
	urls := make(map[types.HostID]string)
	for _, group := range spec.daemons {
		targets := make(map[types.HostID]rpc.Target, len(group))
		for _, h := range group {
			st := tib.NewStoreConfig(tib.Config{SegmentSpan: segmentSpan})
			var start int64
			if tr != nil {
				start = tr.now()
			}
			for _, r := range recs[h] {
				st.Add(r)
			}
			if tr != nil {
				tr.add(span{name: "tib.add", id: tr.newID(), start: start, end: tr.now()})
			}
			f.stores[h] = st
			var t rpc.Target = rpc.SnapshotTarget{Store: st}
			if tr != nil {
				tt, err := newTimedTarget(t, tr)
				if err != nil {
					f.close()
					return nil, err
				}
				t = tt
			}
			targets[h] = t
		}
		ms := &rpc.MultiAgentServer{Targets: targets}
		if reg != nil {
			ms.Obs = &rpc.ServerObs{Registry: reg}
		}
		var h http.Handler = ms.Handler()
		if tr != nil {
			h = serveTimed(h, tr)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		srv := &http.Server{Handler: h}
		f.srvs = append(f.srvs, srv)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			_ = srv.Serve(ln) // returns ErrServerClosed once close runs
		}()
		for _, h := range group {
			urls[h] = "http://" + ln.Addr().String()
		}
	}
	transport := &rpc.HTTPTransport{URLs: urls}
	if tr != nil {
		transport.Client = &http.Client{Transport: &timedRoundTripper{base: rpc.DefaultTransport, tr: tr}}
	}
	f.ctrl = controller.New(topo, transport, nil)
	f.ctrl.RegisterMetrics(reg)
	return f, nil
}

// close stops every daemon and waits for their serve loops to end.
func (f *fleet) close() {
	for _, s := range f.srvs {
		_ = s.Close() // listener and connections are ours; nothing to report
	}
	f.wg.Wait()
	rpc.DefaultTransport.CloseIdleConnections()
}

func (f *fleet) execute(ctx context.Context, q query.Query) (query.Result, controller.ExecStats, error) {
	if f.spec.fanouts == nil {
		return f.ctrl.ExecuteContext(ctx, f.hosts, q)
	}
	return f.ctrl.ExecuteTreeContext(ctx, f.hosts, q, f.spec.fanouts)
}

// variant is one concrete query and the check of its answer.
type variant struct {
	q     query.Query
	check func(*query.Result) error
}

// opMix is one op of a workload's round-robin, with its variants.
type opMix struct {
	name     string
	variants []variant
}

// loopStats is what one closed-loop phase measured.
type loopStats struct {
	lat       [][]float64 // per op, milliseconds
	done      []float64   // completion times, seconds since the start
	attempted int
	failed    int
	firstErr  error
	wall      time.Duration
	mallocs   uint64
	allocB    uint64
	gcs       uint32
	items     int // result items returned (records, flows, cells, top entries)
	hedged    int
	retried   int
}

// closedLoop runs clients that each issue their next query only after
// the previous one returns, for d. Each client goes round after round
// through every op once, in an order it draws afresh each round from
// seed, and picks each query's variant the same way. So which ops of
// the two clients overlap varies within a run instead of locking in
// for a whole run. Every answer is checked.
func (f *fleet) closedLoop(d time.Duration, clients int, ops []opMix, seed int64, tr *tracer) loopStats {
	type clientOut struct {
		lat                                 [][]float64
		done                                []float64
		attempted, failed, items, hed, retr int
		err                                 error
	}
	outs := make([]clientOut, clients)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(o *clientOut, rng *rand.Rand) {
			defer wg.Done()
			o.lat = make([][]float64, len(ops))
			var order []int
			for time.Now().Before(deadline) {
				if len(order) == 0 {
					order = rng.Perm(len(ops))
				}
				i := order[0]
				order = order[1:]
				op := ops[i]
				v := op.variants[rng.Intn(len(op.variants))]
				ctx := context.Background()
				var id, s0 int64
				if tr != nil {
					id = tr.newID()
					ctx = obs.ContextWithTrace(ctx, traceID(id))
					s0 = tr.now()
				}
				t0 := time.Now()
				res, st, err := f.execute(ctx, v.q)
				el := time.Since(t0)
				if tr != nil {
					tr.add(span{name: "controller.execute", op: op.name, id: id, rid: id, start: s0, end: tr.now()})
					addMerges(tr, st.Trace, id)
				}
				o.attempted++
				o.hed += st.Hedged
				o.retr += st.Retried
				switch {
				case err != nil:
				case st.Partial:
					err = fmt.Errorf("partial answer, %d hosts skipped", st.Skipped)
				default:
					err = v.check(&res)
				}
				if err != nil {
					o.failed++
					if o.err == nil {
						o.err = fmt.Errorf("%s: %w", op.name, err)
					}
					continue
				}
				o.items += len(res.Records) + len(res.Top) + len(res.Matrix) + len(res.Flows)
				o.lat[i] = append(o.lat[i], float64(el)/1e6)
				o.done = append(o.done, time.Since(start).Seconds())
			}
		}(&outs[c], rand.New(rand.NewSource(seed+int64(c))))
	}
	wg.Wait()
	out := loopStats{wall: time.Since(start), lat: make([][]float64, len(ops))}
	runtime.ReadMemStats(&ms1)
	out.mallocs = ms1.Mallocs - ms0.Mallocs
	out.allocB = ms1.TotalAlloc - ms0.TotalAlloc
	out.gcs = ms1.NumGC - ms0.NumGC
	for _, o := range outs {
		out.attempted += o.attempted
		out.failed += o.failed
		out.items += o.items
		out.hedged += o.hed
		out.retried += o.retr
		if out.firstErr == nil {
			out.firstErr = o.err
		}
		for i := range ops {
			out.lat[i] = append(out.lat[i], o.lat[i]...)
		}
		out.done = append(out.done, o.done...)
	}
	return out
}

// addMerges copies the controller's own merge spans of one execution
// into the tracer, tagged with the execution's request id. A merge span
// runs from the first child's dispatch to the last child's merge, so it
// includes waiting for round trips; it is not made a child of the
// execution, whose self time is what no round trip covers.
func addMerges(tr *tracer, root *obs.Span, rid int64) {
	if root == nil {
		return
	}
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		if s.Name == "merge" {
			start := int64(s.Start.Sub(tr.epoch))
			tr.add(span{name: "controller.merge", id: tr.newID(), rid: rid, start: start, end: start + int64(s.Dur)})
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(root)
}

// --- answer checks against the oracle ---

func checkCount(n int, bytes uint64) func(*query.Result) error {
	return func(r *query.Result) error {
		var got uint64
		for i := range r.Records {
			got += r.Records[i].Bytes
		}
		if len(r.Records) != n || got != bytes {
			return fmt.Errorf("got %d records / %d bytes, want %d / %d", len(r.Records), got, n, bytes)
		}
		return nil
	}
}

func checkTop(want []query.FlowBytes) func(*query.Result) error {
	return func(r *query.Result) error {
		if len(r.Top) != len(want) {
			return fmt.Errorf("got %d entries, want %d", len(r.Top), len(want))
		}
		exp := make(map[types.FlowID]uint64, len(want))
		for _, fb := range want {
			exp[fb.Flow] = fb.Bytes
		}
		for _, fb := range r.Top {
			if b, ok := exp[fb.Flow]; !ok || b != fb.Bytes {
				return fmt.Errorf("unexpected entry %v with %d bytes", fb.Flow, fb.Bytes)
			}
		}
		return nil
	}
}

func checkMatrix(want map[cell]uint64) func(*query.Result) error {
	return func(r *query.Result) error {
		if len(r.Matrix) != len(want) {
			return fmt.Errorf("got %d cells, want %d", len(r.Matrix), len(want))
		}
		for _, c := range r.Matrix {
			if b, ok := want[cell{c.SrcToR, c.DstToR}]; !ok || b != c.Bytes {
				return fmt.Errorf("cell %v->%v has %d bytes, want %d", c.SrcToR, c.DstToR, c.Bytes, b)
			}
		}
		return nil
	}
}

func checkFlows(want map[string]bool) func(*query.Result) error {
	return func(r *query.Result) error {
		if len(r.Flows) != len(want) {
			return fmt.Errorf("got %d flows, want %d", len(r.Flows), len(want))
		}
		for _, fl := range r.Flows {
			if !want[flowKey(fl.ID, fl.Path)] {
				return fmt.Errorf("unexpected flow %v via %v", fl.ID, fl.Path)
			}
		}
		return nil
	}
}

// errNoWork reports a phase that completed no query at all.
var errNoWork = errors.New("no query completed")

// sortedHosts returns topo's host IDs in ascending order.
func sortedHosts(topo *topology.Topology) []types.HostID {
	var out []types.HostID
	for _, h := range topo.Hosts() {
		out = append(out, h.ID)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

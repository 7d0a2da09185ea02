package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"pathdump/internal/query"
	"pathdump/internal/rpc"
	"pathdump/internal/tib"
	"pathdump/internal/topology"
	"pathdump/internal/types"
)

// optionalTargets are the interfaces the rpc servers probe a Target for.
var optionalTargets = []reflect.Type{
	reflect.TypeOf((*rpc.TargetE)(nil)).Elem(),
	reflect.TypeOf((*rpc.ContextTarget)(nil)).Elem(),
	reflect.TypeOf((*rpc.InstallerE)(nil)).Elem(),
	reflect.TypeOf((*rpc.Snapshotter)(nil)).Elem(),
	reflect.TypeOf((*rpc.IncrementalSnapshotter)(nil)).Elem(),
	reflect.TypeOf((*rpc.SegmentStatser)(nil)).Elem(),
	reflect.TypeOf((*rpc.ColdStatser)(nil)).Elem(),
	reflect.TypeOf((*rpc.RecordStreamer)(nil)).Elem(),
}

// The timing wrapper must implement exactly the optional interfaces of
// the target it wraps, or traced requests take another server path.
func TestTimedTargetFidelity(t *testing.T) {
	inner := rpc.SnapshotTarget{Store: tib.NewStore()}
	w, err := newTimedTarget(inner, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range optionalTargets {
		if got, want := reflect.TypeOf(w).Implements(it), reflect.TypeOf(inner).Implements(it); got != want {
			t.Errorf("%v: wrapper implements it %v, wrapped target %v", it, got, want)
		}
	}
}

// bareTarget implements rpc.Target and none of its extensions.
type bareTarget struct{}

func (bareTarget) Execute(query.Query) query.Result    { return query.Result{} }
func (bareTarget) Install(query.Query, types.Time) int { return 0 }
func (bareTarget) Uninstall(int) error                 { return nil }
func (bareTarget) TIBSize() int                        { return 0 }

func TestTimedTargetRefusesLesserTargets(t *testing.T) {
	if _, err := newTimedTarget(bareTarget{}, newTracer()); err == nil {
		t.Fatal("wrapping a target without the optional interfaces succeeded")
	}
}

func TestInputDigestDeterministic(t *testing.T) {
	topo, err := topology.FatTree(fatTreeK)
	if err != nil {
		t.Fatal(err)
	}
	for name, spec := range map[string]fleetSpec{"fanout": fanoutSpec(topo), "tree-scan": treeSpec(topo)} {
		hosts := spec.hosts()
		a := digest(hosts, genQueryInputs(topo, spec, 7))
		b := digest(hosts, genQueryInputs(topo, spec, 7))
		c := digest(hosts, genQueryInputs(topo, spec, 8))
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", name, a)
		}
	}
	if defaultIngest(7).digest() != defaultIngest(7).digest() || defaultIngest(7).digest() == defaultIngest(8).digest() {
		t.Error("ingest digests do not follow the seed")
	}
}

// Every generated record must ride a valid path of the fat tree.
func TestRecordsFollowValidPaths(t *testing.T) {
	topo, err := topology.FatTree(fatTreeK)
	if err != nil {
		t.Fatal(err)
	}
	spec := treeSpec(topo)
	for h, recs := range genRecords(topo, spec.hosts(), 200, 3) {
		for _, r := range recs {
			if r.Flow.DstIP != topo.Host(h).IP {
				t.Fatalf("record of %v held at %v", r.Flow, h)
			}
			if err := topo.ValidTrajectory(r.Flow.SrcIP, r.Flow.DstIP, r.Path); err != nil {
				t.Fatalf("record %v: %v", r.Flow, err)
			}
		}
	}
}

// Two ingest-detect simulations of one seed must agree on every count
// and on the detection time.
func TestIngestDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full simulations")
	}
	var outs []ingestOutcome
	for i := 0; i < 2; i++ {
		r, err := setupIngest(defaultIngest(5), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		o, err := r.run()
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, o)
	}
	if !sameOutcome(outs[0], outs[1]) {
		t.Fatalf("runs differ:\n%s\n%s", summary(outs[0]), summary(outs[1]))
	}
}

// The oracle must accept the program's answers and reject altered ones.
func TestOracleChecksAnswers(t *testing.T) {
	topo, err := topology.FatTree(fatTreeK)
	if err != nil {
		t.Fatal(err)
	}
	spec := treeSpec(topo)
	spec.perHost = 300
	recs := genQueryInputs(topo, spec, 9)
	ops := treeOps(topo, newOracle(spec.hosts(), recs), 9)
	fl, err := startFleet(topo, spec, recs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.close()
	for _, op := range ops {
		for i, v := range op.variants {
			res, st, err := fl.execute(context.Background(), v.q)
			if err != nil || st.Partial {
				t.Fatalf("%s/%d: err %v, partial %v", op.name, i, err, st.Partial)
			}
			if err := v.check(&res); err != nil {
				t.Fatalf("%s/%d: correct answer rejected: %v", op.name, i, err)
			}
			if !alter(&res) {
				continue // an empty answer has nothing to alter
			}
			if v.check(&res) == nil {
				t.Errorf("%s/%d: altered answer accepted", op.name, i)
			}
		}
	}
}

// alter changes one item of a result, reporting false if it has none.
func alter(r *query.Result) bool {
	switch {
	case len(r.Records) > 0:
		r.Records[0].Bytes++
	case len(r.Top) > 0:
		r.Top[len(r.Top)-1].Bytes--
	case len(r.Matrix) > 0:
		r.Matrix[0].Bytes++
	case len(r.Flows) > 0:
		r.Flows = r.Flows[1:]
	default:
		return false
	}
	return true
}

// A short traced run must pass its cross-checks against the program's
// own counters and measure every layer the workload crosses.
func TestTracedQueriesCrossCheck(t *testing.T) {
	res, err := traceQueries("fanout", 2, 2*time.Second, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct {
		t.Fatalf("traced run failed: %v", res.errs)
	}
	for _, m := range []string{"query.exec_s", "rpc.roundtrip_s", "rpc.requests.batchquery", "controller.execute_s", "controller.fanout_overlap", "wire.bytes_per_record"} {
		if res.metrics[m] <= 0 {
			t.Errorf("%s = %v, want > 0", m, res.metrics[m])
		}
	}
}

// A traced ingest simulation must behave exactly like its untraced
// twin and agree with the agents' and controller's own counters.
func TestTracedIngestCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full simulations")
	}
	res, err := traceIngest(4, 2*time.Second, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct {
		t.Fatalf("traced run failed: %v", res.errs)
	}
	for _, m := range []string{"netsim.events", "netsim.self_s", "agent.receive_s", "agent.trigger_runs", "alarms.admitted"} {
		if res.metrics[m] <= 0 {
			t.Errorf("%s = %v, want > 0", m, res.metrics[m])
		}
	}
}

func TestCover(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{id: 1, start: 0, end: 100},
		{id: 2, parent: 1, start: 10, end: 30},
		{id: 3, parent: 1, start: 20, end: 40},
		{id: 4, parent: 1, start: 90, end: 120},
	}
	lay := tr.layers()[""]
	// Parent self = 100 - (30 covered by 10..40) - (10 covered by 90..100).
	// Children have no children: self = wall = 20 + 20 + 30.
	if want := (60.0 + 70.0) / 1e9; lay.SelfS < want-1e-15 || lay.SelfS > want+1e-15 {
		t.Fatalf("self %v, want %v", lay.SelfS, want)
	}
}

// BENCHMARK.json must name exactly the metrics the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d reported", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, reported %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

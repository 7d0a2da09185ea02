package main

import (
	"math/rand"

	"pathdump/internal/query"
	"pathdump/internal/topology"
	"pathdump/internal/types"
)

// Sizes of the query workloads.
const (
	fatTreeK = 8

	fanoutDaemons   = 8
	fanoutPerDaemon = 16
	fanoutRecords   = 64

	treeHosts   = 16
	treeRecords = 3000
	topK        = 100
	// windowVariants is how many distinct windows (and links) each
	// windowed tree-scan op cycles through.
	windowVariants = 8
)

// fanoutSpec lays 128 hosts out 16 to a daemon, so every query rides
// the batched /batchquery path.
func fanoutSpec(topo *topology.Topology) fleetSpec {
	hosts := sortedHosts(topo)
	var spec fleetSpec
	for d := 0; d < fanoutDaemons; d++ {
		spec.daemons = append(spec.daemons, hosts[d*fanoutPerDaemon:(d+1)*fanoutPerDaemon])
	}
	spec.perHost = fanoutRecords
	return spec
}

// treeSpec gives each of 16 hosts (one pod) its own daemon, so every
// host answers on the per-host /query path.
func treeSpec(topo *topology.Topology) fleetSpec {
	spec := fleetSpec{perHost: treeRecords, fanouts: []int{4, 4}}
	for _, h := range sortedHosts(topo)[:treeHosts] {
		spec.daemons = append(spec.daemons, []types.HostID{h})
	}
	return spec
}

// genQueryInputs makes a workload's records from the seed.
func genQueryInputs(topo *topology.Topology, spec fleetSpec, seed int64) map[types.HostID][]types.Record {
	return genRecords(topo, spec.hosts(), spec.perHost, seed)
}

// fanoutOps is one op: every record of every host.
func fanoutOps(o *oracle) []opMix {
	n, b := o.count(types.AllTime)
	return []opMix{{name: "records", variants: []variant{{
		q:     query.Query{Op: query.OpRecords, Link: types.AnyLink, Range: types.AllTime},
		check: checkCount(n, b),
	}}}}
}

// treeOps is the tree-scan round-robin: top-k and the traffic matrix
// over all time, flows on one agg→core link in a 10% window, and raw
// records in a 1% window. The windows and links are drawn from the seed.
func treeOps(topo *topology.Topology, o *oracle, seed int64) []opMix {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	window := func(frac float64) types.TimeRange {
		w := types.Time(float64(recordWindow) * frac)
		from := types.Time(rng.Int63n(int64(recordWindow - w)))
		return types.TimeRange{From: from, To: from + w}
	}
	topk := opMix{name: "topk", variants: []variant{{
		q:     query.Query{Op: query.OpTopK, K: topK, Range: types.AllTime},
		check: checkTop(o.topK(topK, types.AllTime)),
	}}}
	matrix := opMix{name: "matrix", variants: []variant{{
		q:     query.Query{Op: query.OpMatrix, Range: types.AllTime},
		check: checkMatrix(o.matrix(types.AllTime)),
	}}}
	flows := opMix{name: "flows"}
	records := opMix{name: "records"}
	half := topo.K / 2
	for i := 0; i < windowVariants; i++ {
		// Pods 1..k-1 hold the sources whose traffic climbs to the core
		// on its way to pod 0, where the queried hosts live.
		pod := 1 + rng.Intn(topo.K-1)
		agg := rng.Intn(half)
		link := types.LinkID{A: topo.AggID(pod, agg), B: topo.CoreID(agg*half + rng.Intn(half))}
		tr := window(0.10)
		flows.variants = append(flows.variants, variant{
			q:     query.Query{Op: query.OpFlows, Link: link, Range: tr},
			check: checkFlows(o.flows(link, tr)),
		})
		tr = window(0.01)
		n, b := o.count(tr)
		records.variants = append(records.variants, variant{
			q:     query.Query{Op: query.OpRecords, Link: types.AnyLink, Range: tr},
			check: checkCount(n, b),
		})
	}
	return []opMix{topk, matrix, flows, records}
}

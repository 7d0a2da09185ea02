package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"sort"

	"pathdump/internal/query"
	"pathdump/internal/topology"
	"pathdump/internal/types"
	"pathdump/internal/workload"
)

// recordWindow is the virtual time span the generated records' start
// times are spread over.
const recordWindow = 60 * types.Second

// genRecords makes perHost TIB records for each of hosts, as the
// receiving agent would hold them: every record is a flow from a random
// other host of topo to the holder, on one of the flow's valid
// equal-cost fat-tree paths, with a web-search flow size. A flow has one
// to three records (one per idle-timeout export). Each host's records
// are in export (end time) order. The same seed gives the same records.
func genRecords(topo *topology.Topology, hosts []types.HostID, perHost int, seed int64) map[types.HostID][]types.Record {
	rng := rand.New(rand.NewSource(seed))
	router := topology.NewRouter(topo)
	sizes := workload.WebSearch()
	all := topo.Hosts()
	type pair struct{ src, dst types.IP }
	ports := make(map[pair]uint16)
	paths := make(map[pair][]types.Path)
	out := make(map[types.HostID][]types.Record, len(hosts))
	for _, h := range hosts {
		dst := topo.Host(h)
		recs := make([]types.Record, 0, perHost)
		for len(recs) < perHost {
			src := all[rng.Intn(len(all))]
			if src.ID == h {
				continue
			}
			k := pair{src.IP, dst.IP}
			ports[k]++
			f := types.FlowID{SrcIP: src.IP, DstIP: dst.IP, SrcPort: 1024 + ports[k], DstPort: 80, Proto: types.ProtoTCP}
			eq, ok := paths[k]
			if !ok {
				eq = router.EqualCostPaths(src.IP, dst.IP)
				paths[k] = eq
			}
			p := eq[topology.ECMPIndex(f, uint32(seed), len(eq))]
			at := types.Time(rng.Int63n(int64(recordWindow)))
			for n := 1 + pick(rng); n > 0 && len(recs) < perHost; n-- {
				bytes := uint64(sizes.Sample(rng))
				// Transfer time at 1 Gbps plus up to 2 ms of slack.
				d := types.Time(bytes*8) + types.Time(rng.Int63n(int64(2*types.Millisecond)))
				recs = append(recs, types.Record{
					Flow: f, Path: p, STime: at, ETime: at + d,
					Bytes: bytes, Pkts: (bytes + 1459) / 1460,
				})
				at += d + types.Time(rng.Int63n(int64(types.Second)))
			}
		}
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].ETime < recs[j].ETime })
		out[h] = recs
	}
	return out
}

// pick returns 0, 1 or 2 extra records for a flow (60/30/10 %).
func pick(rng *rand.Rand) int {
	switch x := rng.Intn(10); {
	case x < 6:
		return 0
	case x < 9:
		return 1
	}
	return 2
}

// digest hashes generated records in host order, so two runs can show
// that one seed gave one input.
func digest(hosts []types.HostID, recs map[types.HostID][]types.Record) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, host := range hosts {
		put(uint64(host))
		for i := range recs[host] {
			r := &recs[host][i]
			put(uint64(r.Flow.SrcIP)<<32 | uint64(r.Flow.DstIP))
			put(uint64(r.Flow.SrcPort)<<16 | uint64(r.Flow.DstPort))
			for _, s := range r.Path {
				put(uint64(s))
			}
			put(uint64(r.STime))
			put(uint64(r.ETime))
			put(r.Bytes)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// oracle answers the benchmark's queries from its own copy of the
// records, independently of the program under test.
type oracle struct {
	recs []types.Record
}

func newOracle(hosts []types.HostID, recs map[types.HostID][]types.Record) *oracle {
	o := &oracle{}
	for _, h := range hosts {
		o.recs = append(o.recs, recs[h]...)
	}
	return o
}

// count returns the number and total bytes of records overlapping tr.
func (o *oracle) count(tr types.TimeRange) (n int, bytes uint64) {
	for i := range o.recs {
		if o.recs[i].Overlaps(tr) {
			n++
			bytes += o.recs[i].Bytes
		}
	}
	return n, bytes
}

// topK ranks flows by their bytes over tr, ties broken as the program's
// documented order (5-tuple ascending), and keeps k.
func (o *oracle) topK(k int, tr types.TimeRange) []query.FlowBytes {
	tot := make(map[types.FlowID]*query.FlowBytes)
	for i := range o.recs {
		r := &o.recs[i]
		if !r.Overlaps(tr) {
			continue
		}
		fb := tot[r.Flow]
		if fb == nil {
			fb = &query.FlowBytes{Flow: r.Flow}
			tot[r.Flow] = fb
		}
		fb.Bytes += r.Bytes
		fb.Pkts += r.Pkts
	}
	all := make([]query.FlowBytes, 0, len(tot))
	for _, fb := range tot {
		all = append(all, *fb)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Bytes != all[j].Bytes {
			return all[i].Bytes > all[j].Bytes
		}
		a, b := all[i].Flow, all[j].Flow
		if a.SrcIP != b.SrcIP {
			return a.SrcIP < b.SrcIP
		}
		if a.SrcPort != b.SrcPort {
			return a.SrcPort < b.SrcPort
		}
		if a.DstIP != b.DstIP {
			return a.DstIP < b.DstIP
		}
		if a.DstPort != b.DstPort {
			return a.DstPort < b.DstPort
		}
		return a.Proto < b.Proto
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

type cell struct{ src, dst types.SwitchID }

// matrix sums bytes per (first switch, last switch) of the path.
func (o *oracle) matrix(tr types.TimeRange) map[cell]uint64 {
	m := make(map[cell]uint64)
	for i := range o.recs {
		r := &o.recs[i]
		if r.Overlaps(tr) && len(r.Path) > 0 {
			m[cell{r.Path[0], r.Path[len(r.Path)-1]}] += r.Bytes
		}
	}
	return m
}

// flowKey identifies one (flow, path) pair.
func flowKey(f types.FlowID, p types.Path) string { return f.String() + "|" + p.String() }

// flows is the set of distinct (flow, path) pairs crossing link in tr.
func (o *oracle) flows(link types.LinkID, tr types.TimeRange) map[string]bool {
	set := make(map[string]bool)
	for i := range o.recs {
		r := &o.recs[i]
		if r.Overlaps(tr) && r.Path.ContainsLink(link) {
			set[flowKey(r.Flow, r.Path)] = true
		}
	}
	return set
}

package tib

import (
	"bytes"
	"encoding/gob"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pathdump/internal/types"
)

// scanAll collects the store's full insertion-order iteration.
func scanAll(s *Store) []types.Record {
	var out []types.Record
	s.ForEach(types.AnyLink, types.AllTime, func(r *types.Record) { out = append(out, *r) })
	return out
}

func sameRecords(t *testing.T, got, want []types.Record, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !recEqual(got[i], want[i]) {
			t.Fatalf("%s: record %d differs: %v vs %v", what, i, got[i], want[i])
		}
	}
}

// TestSnapshotV2SegmentRoundTrip: a multi-segment store round-trips
// through the v2 format with order, indexes and segment bounds intact —
// the restored store still prunes.
func TestSnapshotV2SegmentRoundTrip(t *testing.T) {
	s := NewStoreConfig(Config{SegmentSpan: types.Second})
	for i := 0; i < 5000; i++ {
		st := types.Time(i) * 10 * types.Millisecond
		s.Add(mkRecord(flowN(i%200), types.Path{1, types.SwitchID(2 + i%4), 9}, st, st+types.Millisecond, uint64(i), 1))
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte(snapshotMagic)) {
		t.Fatal("v2 snapshot lacks the magic prefix")
	}
	restored := NewStoreConfig(Config{SegmentSpan: types.Second})
	if err := restored.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	sameRecords(t, scanAll(restored), scanAll(s), "v2 round trip")
	if restored.Segments() < s.Segments() {
		t.Errorf("restore collapsed segments: %d, writer had %d", restored.Segments(), s.Segments())
	}
	// Indexes survived: a concrete-link query answers, and a narrow
	// window still prunes most segments.
	if got := restored.Flows(types.LinkID{A: 1, B: 3}, types.AllTime); len(got) == 0 {
		t.Error("restored link index answers nothing")
	}
	sc0, sp0 := restored.SegmentStats()
	restored.ForEach(types.AnyLink, types.TimeRange{From: 25 * types.Second, To: 26 * types.Second}, func(*types.Record) {})
	sc1, sp1 := restored.SegmentStats()
	if pruned := sp1 - sp0; pruned == 0 || pruned < (sc1-sc0)*5 {
		t.Errorf("restored store does not prune: %d scanned, %d pruned", sc1-sc0, sp1-sp0)
	}
	// Appends after a restore extend the original arrival order.
	restored.Add(mkRecord(flowN(1), types.Path{1, 2, 9}, 0, 1, 7, 7))
	all := scanAll(restored)
	if all[len(all)-1].Bytes != 7 {
		t.Error("post-restore append did not land at the end of the iteration order")
	}
}

// TestLoadSnapshotAtomic (regression): a mid-stream decode error must
// leave the prior contents fully intact — never a half-cleared store —
// for truncated snapshots and for streams that are no snapshot at all.
func TestLoadSnapshotAtomic(t *testing.T) {
	prior := NewStoreConfig(Config{SegmentRecords: 32})
	for i := 0; i < 500; i++ {
		prior.Add(mkRecord(flowN(i%20), types.Path{1, 2, 3}, types.Time(i), types.Time(i+1), uint64(i), 1))
	}
	want := scanAll(prior)

	donor := NewStore()
	for i := 0; i < 2000; i++ {
		donor.Add(mkRecord(flowN(i), types.Path{4, 5, 6}, types.Time(i), types.Time(i+1), 1, 1))
	}
	var v2 bytes.Buffer
	if err := donor.Snapshot(&v2); err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"v2 truncated mid-stream": v2.Bytes()[:v2.Len()/2],
		"v2 missing terminator":   v2.Bytes()[:v2.Len()-3],
		"v1 garbage":              []byte("garbage"),
		"empty":                   nil,
	}
	// So must a bare gob record log without the snapshot magic, whole or
	// cut off mid-record.
	var v1 bytes.Buffer
	recs := make([]types.Record, 100)
	for i := range recs {
		recs[i] = mkRecord(flowN(i), types.Path{1, 2}, 0, 1, 1, 1)
	}
	if err := gob.NewEncoder(&v1).Encode(recs); err != nil {
		t.Fatal(err)
	}
	cases["v1 whole"] = v1.Bytes()
	cases["v1 truncated"] = v1.Bytes()[:v1.Len()/2]

	for name, blob := range cases {
		err := prior.LoadSnapshot(bytes.NewReader(blob))
		if err == nil {
			t.Fatalf("%s: LoadSnapshot accepted a broken snapshot", name)
		}
		if !bytes.HasPrefix(blob, []byte(snapshotMagic)) && !strings.HasPrefix(err.Error(), "tib: ") {
			t.Errorf("%s: err = %q, want a tib: error naming the missing magic", name, err)
		}
		sameRecords(t, scanAll(prior), want, name)
		if prior.Len() != len(want) {
			t.Fatalf("%s: Len = %d, want %d", name, prior.Len(), len(want))
		}
	}

	// And the store still works after the failed loads: queries and
	// appends behave.
	prior.Add(mkRecord(flowN(999), types.Path{1, 2}, 1000, 1001, 5, 5))
	if prior.Len() != len(want)+1 {
		t.Fatal("append after failed load went missing")
	}
}

// TestLoadSnapshotRejectsCorruptSegments: hand-built v2 streams with
// lying metadata must be rejected before the swap — bounds narrower than
// the records would cause silent wrong pruning, and a negative shard
// other than the -1 terminator must not truncate the load quietly.
func TestLoadSnapshotRejectsCorruptSegments(t *testing.T) {
	build := func(mutate func(*wireSegment)) []byte {
		var buf bytes.Buffer
		buf.WriteString(snapshotMagic)
		enc := gob.NewEncoder(&buf)
		if err := enc.Encode(snapshotHeader{Version: 2, Shards: 16, Seq: 2, Indexed: true}); err != nil {
			t.Fatal(err)
		}
		ws := wireSegment{
			Shard: 0,
			Seqs:  []uint64{1, 2},
			Recs: []types.Record{
				mkRecord(flowN(1), types.Path{1, 2}, 10, 20, 1, 1),
				mkRecord(flowN(2), types.Path{1, 2}, 15, 30, 2, 1),
			},
			MinTime: 10, MaxTime: 30,
		}
		mutate(&ws)
		if err := enc.Encode(ws); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(wireSegment{Shard: -1}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := map[string]func(*wireSegment){
		"bounds exclude a record": func(ws *wireSegment) { ws.MaxTime = 25 },
		"min bound too high":      func(ws *wireSegment) { ws.MinTime = 12 },
		"negative non-terminator": func(ws *wireSegment) { ws.Shard = -3 },
		"shard out of range":      func(ws *wireSegment) { ws.Shard = 16 },
		"seqs not ascending":      func(ws *wireSegment) { ws.Seqs = []uint64{2, 2} },
		"posting out of range":    func(ws *wireSegment) { ws.ByFlow = map[types.FlowID][]int{flowN(1): {5}} },
	}
	for name, mutate := range cases {
		s := NewStore()
		s.Add(mkRecord(flowN(9), types.Path{1, 2}, 0, 1, 9, 9))
		if err := s.LoadSnapshot(bytes.NewReader(build(mutate))); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", name)
		}
		if s.Len() != 1 {
			t.Errorf("%s: prior contents disturbed (Len=%d)", name, s.Len())
		}
	}
	// The untouched stream is valid — the cases above fail for the
	// mutation, not the harness.
	s := NewStore()
	if err := s.LoadSnapshot(bytes.NewReader(build(func(*wireSegment) {}))); err != nil {
		t.Fatalf("control stream rejected: %v", err)
	}
	if s.Len() != 2 {
		t.Fatalf("control stream loaded %d records", s.Len())
	}
}

// TestSnapshotReshape: a snapshot written by a store with a different
// stripe count redistributes records (the flow→shard mapping changes)
// and still answers identically, in identical order.
func TestSnapshotReshape(t *testing.T) {
	wide := NewStoreConfig(Config{Shards: 16, SegmentRecords: 64})
	for i := 0; i < 2000; i++ {
		wide.Add(mkRecord(flowN(i%150), types.Path{1, 2, 3}, types.Time(i), types.Time(i+1), uint64(i), 1))
	}
	var buf bytes.Buffer
	if err := wide.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	narrow := NewStoreConfig(Config{Shards: 4, SegmentRecords: 64})
	if err := narrow.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	sameRecords(t, scanAll(narrow), scanAll(wide), "reshaped load")
	f := flowN(7)
	wb, wk := wide.Count(types.Flow{ID: f}, types.AllTime)
	nb, nk := narrow.Count(types.Flow{ID: f}, types.AllTime)
	if wb != nb || wk != nk {
		t.Errorf("reshaped flow lookup = %d/%d, want %d/%d", nb, nk, wb, wk)
	}
}

// TestSnapshotUnderConcurrentIngest (-race): snapshotting a store while
// writers append must capture a consistent, downward-closed prefix of
// the arrival order — per writer, a prefix of that writer's adds, in
// that writer's order — restore it intact, and leave no goroutine
// behind.
func TestSnapshotUnderConcurrentIngest(t *testing.T) {
	const writers, perWriter = 8, 3000
	s := NewStoreConfig(Config{SegmentRecords: 256})
	baseline := runtime.NumGoroutine()

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				// SrcIP encodes the writer, SrcPort its per-writer order.
				s.Add(types.Record{
					Flow:  types.FlowID{SrcIP: types.IP(w + 1), DstIP: 9, SrcPort: uint16(i), DstPort: 80, Proto: 6},
					Path:  types.Path{1, types.SwitchID(2 + w%4), 9},
					STime: types.Time(i), ETime: types.Time(i + 1),
					Bytes: uint64(i), Pkts: 1,
				})
			}
		}(w)
	}
	close(start)
	var bufs []bytes.Buffer
	bufs = make([]bytes.Buffer, 3)
	for i := range bufs {
		if err := s.Snapshot(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	for i := range bufs {
		restored := NewStoreConfig(Config{SegmentRecords: 256})
		if err := restored.LoadSnapshot(bytes.NewReader(bufs[i].Bytes())); err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		next := make([]int, writers+1) // expected SrcPort per writer: prefixes, in order
		n := 0
		restored.ForEach(types.AnyLink, types.AllTime, func(r *types.Record) {
			n++
			w := int(r.Flow.SrcIP)
			if w < 1 || w > writers {
				t.Fatalf("snapshot %d: alien record %v", i, r)
			}
			if int(r.Flow.SrcPort) != next[w] {
				t.Fatalf("snapshot %d: writer %d out of order: got #%d, want #%d", i, w, r.Flow.SrcPort, next[w])
			}
			next[w]++
		})
		if n != restored.Len() {
			t.Fatalf("snapshot %d: scan %d records, Len %d", i, n, restored.Len())
		}
	}

	// The final snapshot after all writers joined must be complete.
	var final bytes.Buffer
	if err := s.Snapshot(&final); err != nil {
		t.Fatal(err)
	}
	restored := NewStore()
	if err := restored.LoadSnapshot(&final); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != writers*perWriter {
		t.Fatalf("final restore = %d records, want %d", restored.Len(), writers*perWriter)
	}

	// Goroutine-leak cleanliness: snapshot/restore spin up only the
	// bounded index-rebuild workers, which must all have exited.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

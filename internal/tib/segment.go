package tib

import (
	"sort"
	"sync/atomic"

	"pathdump/internal/types"
)

// segment is one time partition of a shard's record log: a slice of
// sequence-stamped entries plus that partition's flow and directed-link
// indexes, bracketed by the min/max record times it covers. The last
// segment of a shard is the active append target; once sealed (by record
// count or time span — see Store.shouldSeal) a segment is immutable:
// entries, postings and bounds never change again, so readers and the
// snapshot writer may hold references without locks.
type segment struct {
	sealed  bool
	entries []entry
	byFlow  map[types.FlowID][]int
	byLink  map[types.LinkID][]int
	// filter is the sealed segment's flow bloom (nil on active segments
	// and until seal): single-flow scans probe it before the posting map
	// and prune the segment whole on a miss. Immutable once set, and
	// retained in RAM when the segment spills cold so flow scans still
	// prune spilled segments without touching disk.
	filter *flowFilter
	// minTime/maxTime bracket [STime, ETime] over all entries; scans
	// prune the whole segment when the query range misses the bracket.
	minTime, maxTime types.Time
	// bytes is the segment's estimated resident footprint (recSize per
	// entry) — the unit of the byte-budget retention accounting. Spilling
	// a segment cold moves this to coldBytes (a cold segment costs its
	// metadata stub, not its records).
	bytes int64

	// Cold-tier state (see cold.go). A cold segment keeps only its
	// pruning metadata resident: entries and postings are nil and the
	// record data lives at coldPath in the v2 snapshot framing, loaded
	// transiently per scan by thaw. All transitions happen under the
	// shard write lock.
	cold      bool
	coldPath  string
	coldRecs  int   // record count while entries are spilled
	coldBytes int64 // estimated resident footprint if thawed
	// seqLo/seqHi are the arrival-sequence bounds, frozen at spill time
	// so watermark pruning works without the entries.
	seqLo, seqHi uint64
	// dropped flips (before the cold file is unlinked) when eviction
	// removes the segment, so a scan that captured the segment moments
	// earlier can tell "evicted under me" from "file corrupt".
	dropped atomic.Bool
}

// recs returns the segment's record count whether its entries are
// resident or spilled cold.
func (seg *segment) recs() int {
	if seg.cold {
		return seg.coldRecs
	}
	return len(seg.entries)
}

// firstSeq/lastSeq bracket the segment's global arrival sequence numbers.
// Sequence numbers are assigned under the shard write lock, so within a
// shard's chain both are monotone across segments and entries — watermark
// scans skip a whole segment when lastSeq() is at or below the watermark.
// Caller holds (at least) the shard read lock for the active segment;
// sealed segments are immutable. Cold segments answer from the bounds
// frozen at spill time.
func (seg *segment) firstSeq() uint64 {
	if seg.cold {
		return seg.seqLo
	}
	return seg.entries[0].seq
}

func (seg *segment) lastSeq() uint64 {
	if seg.cold {
		return seg.seqHi
	}
	return seg.entries[len(seg.entries)-1].seq
}

// seqOutside reports whether the (since, until] arrival-sequence window
// excludes the whole segment — the watermark prune check shared by every
// scan path. Caller guarantees the segment is non-empty.
func (seg *segment) seqOutside(since, until uint64) bool {
	return (since > 0 && seg.lastSeq() <= since) || (until > 0 && seg.firstSeq() > until)
}

// seqStart returns the index of the first entry past the since
// watermark: 0 when every entry qualifies, a binary-search position
// inside the one segment that straddles the watermark. Caller has
// already excluded segments wholly outside the window.
func (seg *segment) seqStart(since uint64) int {
	if since == 0 || seg.firstSeq() > since {
		return 0
	}
	return sort.Search(len(seg.entries), func(k int) bool { return seg.entries[k].seq > since })
}

func newSegment(indexed bool) *segment {
	seg := &segment{}
	if indexed {
		seg.byFlow = make(map[types.FlowID][]int)
		seg.byLink = make(map[types.LinkID][]int)
	}
	return seg
}

// add appends one entry to the (active) segment, updating bounds and
// postings. Caller holds the shard write lock.
func (seg *segment) add(e entry, indexed bool) {
	idx := len(seg.entries)
	if idx == 0 {
		seg.minTime, seg.maxTime = e.rec.STime, e.rec.ETime
	} else {
		if e.rec.STime < seg.minTime {
			seg.minTime = e.rec.STime
		}
		if e.rec.ETime > seg.maxTime {
			seg.maxTime = e.rec.ETime
		}
	}
	seg.entries = append(seg.entries, e)
	seg.bytes += recSize(&e.rec)
	if indexed {
		seg.byFlow[e.rec.Flow] = append(seg.byFlow[e.rec.Flow], idx)
		for _, l := range e.rec.Path.Links() {
			seg.byLink[l] = append(seg.byLink[l], idx)
		}
	}
}

// seal freezes the segment — entries, postings and bounds immutable from
// here on — and builds its flow bloom filter. Caller holds the shard
// write lock (or owns the segment exclusively, as the load paths do).
func (seg *segment) seal() {
	seg.sealed = true
	seg.buildFilter()
}

// buildFilter (re)computes the segment's flow bloom from its entries —
// always the ground truth, even on load paths where the posting maps are
// stale or still pending a rebuild. The map only informs sizing when it
// is populated; otherwise the entry count stands in (an overestimate —
// distinct flows ≤ entries — which only makes the filter sparser).
func (seg *segment) buildFilter() {
	distinct := len(seg.byFlow)
	if distinct == 0 {
		distinct = len(seg.entries)
	}
	f := newFlowFilter(distinct)
	for i := range seg.entries {
		f.add(flowHash64(seg.entries[i].rec.Flow))
	}
	seg.filter = f
}

// overlaps reports whether any record in the segment can intersect tr.
// Empty segments overlap nothing. Cold segments answer from their
// retained bounds.
func (seg *segment) overlaps(tr types.TimeRange) bool {
	if seg.recs() == 0 {
		return false
	}
	return tr.Overlaps(seg.minTime, seg.maxTime)
}

// rebuildIndex recomputes the segment's postings from its entries —
// snapshot loads run this per segment that arrives without postings, in
// parallel.
func (seg *segment) rebuildIndex() {
	seg.byFlow = make(map[types.FlowID][]int, len(seg.entries))
	seg.byLink = make(map[types.LinkID][]int)
	for i := range seg.entries {
		rec := &seg.entries[i].rec
		seg.byFlow[rec.Flow] = append(seg.byFlow[rec.Flow], i)
		for _, l := range rec.Path.Links() {
			seg.byLink[l] = append(seg.byLink[l], i)
		}
	}
}

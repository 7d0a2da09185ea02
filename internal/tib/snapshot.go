// Snapshot/restore of the segmented TIB (the stand-in for the paper's
// MongoDB persistence).
//
// The format (written by Snapshot) is a raw 8-byte magic prefix, then a
// gob stream of a header followed by one record per segment — entries
// with their original sequence stamps, time bounds, and (for sealed
// segments) the flow/link postings verbatim. Restore adopts segments
// wholesale: no per-record re-Add, and index rebuild only for the few
// segments written without postings (each shard's active segment, whose
// maps may be mutated mid-snapshot by concurrent ingest and are
// therefore not captured). A reader with a different stripe count
// redistributes the records instead (buildFrom). Incremental streams
// (SnapshotSince, Version 3) share the framing.
//
// LoadSnapshot is atomic: the incoming stream is fully
// decoded and validated into a staged store first, and only then swapped
// in under every shard lock at once. A mid-stream decode error leaves
// the prior contents untouched, and concurrent readers see either the
// old store or the new one — never a half-cleared mix.
package tib

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"

	"pathdump/internal/types"
)

// ErrIncompatibleDelta reports an incremental snapshot this store
// cannot apply — a stripe-count mismatch, or a gap/overlap between the
// delta and local state. The caller's remedy is a full snapshot pull
// (rpc.StandbyReplica does this automatically).
var ErrIncompatibleDelta = errors.New("tib: incremental snapshot incompatible with local store")

// snapshotMagic prefixes every snapshot stream; LoadSnapshot rejects a
// stream without it.
const snapshotMagic = "PDTIBv2\n"

// snapshotHeader opens the v2 gob stream. Incremental streams reuse the
// same magic and header shape with Version 3 and a non-zero Since, so a
// v2-only loader rejects them loudly ("unsupported snapshot version 3")
// instead of silently adopting a delta as a whole store.
type snapshotHeader struct {
	Version int
	// Shards is the writing store's stripe count: a reader with the same
	// count adopts segments directly, anything else redistributes by flow
	// hash (the mapping depends on the stripe count).
	Shards int
	// Seq is the writer's global sequence counter at capture time, so
	// appends after a restore extend the original arrival order.
	Seq uint64
	// Indexed records whether the writer maintained flow/link postings.
	Indexed bool
	// Since is the watermark an incremental stream (Version 3) was cut
	// at: only segments holding records with sequence > Since follow.
	// Zero on full snapshots.
	Since uint64
}

// wireSegment is one segment on the wire. A Shard of -1 terminates the
// stream (distinguishing a complete snapshot from one cut off mid-write).
type wireSegment struct {
	Shard int
	Seqs  []uint64
	Recs  []types.Record
	// ByFlow/ByLink are the segment's postings, nil when the writer could
	// not capture them immutably (the active segment); the loader rebuilds
	// those.
	ByFlow           map[types.FlowID][]int
	ByLink           map[types.LinkID][]int
	MinTime, MaxTime types.Time
}

// segView is one segment's immutable capture for the writer. A cold
// segment is captured by stub reference (cold non-nil) and its contents
// demand-loaded at encode time, outside the shard locks.
type segView struct {
	entries          []entry
	byFlow           map[types.FlowID][]int
	byLink           map[types.LinkID][]int
	minTime, maxTime types.Time
	seqHi            uint64
	cold             *segment
	// trimAfter, when non-zero, tells the encoder to ship only the
	// entries with seq > trimAfter — set for segments straddling an
	// incremental snapshot's watermark, so a delta never re-ships records
	// the receiver already holds.
	trimAfter uint64
}

// captureSegments snapshots every shard's segment chain under all shard
// read-locks at once (a consistent, downward-closed prefix of the global
// arrival order, like every scan). Sealed segments are captured by
// reference — they are immutable. The active segment's entries slice is
// append-only so its header is safe too, but its posting maps mutate in
// place under the shard lock, so they are left nil and rebuilt on load.
// Cold segments are captured as stub references for the encoder to thaw.
func (s *Store) captureSegments() (views [][]segView, seq uint64) {
	for i := range s.shards {
		s.shards[i].mu.RLock()
	}
	views = make([][]segView, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		for _, seg := range sh.segs {
			if seg.recs() == 0 {
				continue
			}
			if seg.cold {
				views[i] = append(views[i], segView{cold: seg, minTime: seg.minTime, maxTime: seg.maxTime, seqHi: seg.seqHi})
				continue
			}
			v := segView{entries: seg.entries, minTime: seg.minTime, maxTime: seg.maxTime, seqHi: seg.entries[len(seg.entries)-1].seq}
			if seg.sealed {
				v.byFlow, v.byLink = seg.byFlow, seg.byLink
			}
			views[i] = append(views[i], v)
		}
	}
	seq = s.seq.Load() // exact: assignment happens under shard locks, all held
	for i := range s.shards {
		s.shards[i].mu.RUnlock()
	}
	return views, seq
}

// Snapshot serialises the store in the v2 segment-wise format. The
// capture is a momentary all-shard lock hold (header copies only);
// encoding streams outside the locks, so concurrent ingest proceeds
// while a large snapshot is written. Cold segments are demand-loaded
// one at a time during the encode — a snapshot always carries the whole
// store, however it is tiered — and a cold file that cannot be read
// back fails the snapshot with a *ColdReadError.
func (s *Store) Snapshot(w io.Writer) error {
	views, seq := s.captureSegments()
	return s.encodeSnapshot(w, views, snapshotHeader{Version: 2, Shards: len(s.shards), Seq: seq, Indexed: s.indexed})
}

// SnapshotSince serialises an incremental snapshot: only segments
// holding records with arrival sequence greater than since, in the
// Version-3 framing (same magic, Since set in the header). A standby
// that applied a full snapshot at watermark N catches up by applying a
// SnapshotSince(N) stream — see ApplyIncremental.
//
// When the delta cannot be honest, the full Version-2 snapshot is
// written instead and the receiver detects the difference from the
// header: since 0 (no watermark), since beyond the writer's own
// sequence counter (the watermark is from a different store lineage),
// or since at or below evictedThroughSeq (eviction has destroyed part
// of the requested range — the fallback the "watermark older than
// retention" case exercises).
func (s *Store) SnapshotSince(w io.Writer, since uint64) error {
	views, seq := s.captureSegments()
	// The eviction watermark is checked after capture: eviction takes
	// every shard write lock, so it either completed before the capture
	// (and is visible here) or starts after it (and the captured
	// references keep their data alive regardless).
	if since == 0 || since > seq || since <= s.evictedThroughSeq.Load() {
		return s.encodeSnapshot(w, views, snapshotHeader{Version: 2, Shards: len(s.shards), Seq: seq, Indexed: s.indexed})
	}
	delta := make([][]segView, len(views))
	for i, segs := range views {
		for _, v := range segs {
			if v.seqHi <= since {
				continue
			}
			// A segment straddling the watermark — typically each shard's
			// active segment — is shipped trimmed to its unseen suffix, so
			// the delta's cost tracks the new data, not the segment size.
			lo := uint64(0)
			if v.cold != nil {
				lo = v.cold.seqLo
			} else if len(v.entries) > 0 {
				lo = v.entries[0].seq
			}
			if lo <= since {
				v.trimAfter = since
			}
			delta[i] = append(delta[i], v)
		}
	}
	return s.encodeSnapshot(w, delta, snapshotHeader{Version: 3, Shards: len(s.shards), Seq: seq, Indexed: s.indexed, Since: since})
}

// encodeSnapshot streams captured views in the magic+header+segments
// framing shared by full and incremental snapshots, thawing cold
// captures one at a time.
func (s *Store) encodeSnapshot(w io.Writer, views [][]segView, hdr snapshotHeader) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	enc := gob.NewEncoder(bw)
	if err := enc.Encode(hdr); err != nil {
		return err
	}
	for si, segs := range views {
		for _, v := range segs {
			if v.cold != nil {
				th, err := s.thaw(v.cold)
				if err != nil {
					return err
				}
				if th == nil {
					continue // evicted while encoding: it is gone either way
				}
				v.entries, v.byFlow, v.byLink = th.entries, th.byFlow, th.byLink
			}
			if v.trimAfter > 0 {
				// Keep only the suffix with seq > trimAfter. Entries are
				// sequence-ascending, postings index the whole segment
				// (ship nil, the receiver rebuilds) and the time bracket
				// is recomputed over the survivors.
				cut := sort.Search(len(v.entries), func(k int) bool {
					return v.entries[k].seq > v.trimAfter
				})
				v.entries = v.entries[cut:]
				if len(v.entries) == 0 {
					continue
				}
				v.byFlow, v.byLink = nil, nil
				v.minTime, v.maxTime = v.entries[0].rec.STime, v.entries[0].rec.ETime
				for k := range v.entries {
					if st := v.entries[k].rec.STime; st < v.minTime {
						v.minTime = st
					}
					if et := v.entries[k].rec.ETime; et > v.maxTime {
						v.maxTime = et
					}
				}
			}
			ws := wireSegment{
				Shard:   si,
				Seqs:    make([]uint64, len(v.entries)),
				Recs:    make([]types.Record, len(v.entries)),
				ByFlow:  v.byFlow,
				ByLink:  v.byLink,
				MinTime: v.minTime,
				MaxTime: v.maxTime,
			}
			for i := range v.entries {
				ws.Seqs[i] = v.entries[i].seq
				ws.Recs[i] = v.entries[i].rec
			}
			if err := enc.Encode(ws); err != nil {
				return err
			}
		}
	}
	if err := enc.Encode(wireSegment{Shard: -1}); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadSnapshot replaces the store contents from a snapshot. The
// replacement is atomic — see the package comment at the top of this
// file.
func (s *Store) LoadSnapshot(r io.Reader) error {
	br := bufio.NewReader(r)
	magic, err := br.Peek(len(snapshotMagic))
	if err != nil || !bytes.Equal(magic, []byte(snapshotMagic)) {
		return errors.New("tib: not a TIB snapshot (missing PDTIBv2 magic)")
	}
	if _, err := br.Discard(len(snapshotMagic)); err != nil {
		return err
	}
	return s.loadV2(br)
}

// emptyClone builds an empty store with this store's configuration.
func (s *Store) emptyClone() *Store {
	return NewStoreConfig(Config{
		Shards:         len(s.shards),
		SegmentSpan:    s.segSpan,
		SegmentRecords: s.segRecords,
		Retention:      s.retention,
		RetentionBytes: s.retentionBytes,
		Unindexed:      !s.indexed,
	})
}

// loadV2 decodes the segment-wise stream into a staged store and swaps it
// in. Segments from a writer with the same stripe count are adopted
// wholesale (postings intact where present); a different stripe count
// forces redistribution, because the flow→shard mapping changes.
func (s *Store) loadV2(r io.Reader) error {
	dec := gob.NewDecoder(r)
	var hdr snapshotHeader
	if err := dec.Decode(&hdr); err != nil {
		return fmt.Errorf("tib: snapshot header: %w", err)
	}
	if hdr.Version == 3 {
		return fmt.Errorf("tib: stream is an incremental snapshot (since %d); LoadSnapshot needs a full one — use ApplyIncremental", hdr.Since)
	}
	if hdr.Version != 2 {
		return fmt.Errorf("tib: unsupported snapshot version %d", hdr.Version)
	}
	return s.loadV2Body(dec, hdr)
}

// loadV2Body stages and swaps in a full Version-2 segment stream whose
// header has already been read.
func (s *Store) loadV2Body(dec *gob.Decoder, hdr snapshotHeader) error {
	if hdr.Shards < 1 {
		return fmt.Errorf("tib: snapshot declares %d shards", hdr.Shards)
	}
	staged := s.emptyClone()
	sameShape := hdr.Shards == len(staged.shards)
	var (
		total   int64
		rebuild []*segment
		flat    []entry // only for the reshape path
	)
	for {
		var ws wireSegment
		if err := dec.Decode(&ws); err != nil {
			return fmt.Errorf("tib: snapshot cut off mid-stream: %w", err)
		}
		if ws.Shard == -1 {
			break // terminator: the writer finished
		}
		if err := validateSegment(&ws, hdr.Shards); err != nil {
			return err
		}
		total += int64(len(ws.Recs))
		if !sameShape {
			for i := range ws.Recs {
				flat = append(flat, entry{seq: ws.Seqs[i], rec: ws.Recs[i]})
			}
			continue
		}
		seg := &segment{
			sealed:  true,
			entries: make([]entry, len(ws.Recs)),
			byFlow:  ws.ByFlow,
			byLink:  ws.ByLink,
			minTime: ws.MinTime,
			maxTime: ws.MaxTime,
		}
		for i := range ws.Recs {
			seg.entries[i] = entry{seq: ws.Seqs[i], rec: ws.Recs[i]}
			seg.bytes += recSize(&ws.Recs[i])
		}
		// Blooms are not persisted; adopted sealed segments rebuild theirs
		// from the freshly populated entries.
		seg.buildFilter()
		sh := &staged.shards[ws.Shard]
		// Insert before the (empty) active segment, keeping the chain
		// sequence-monotonic — the writer emitted each shard's segments in
		// chain order.
		if prev := sh.segs[:len(sh.segs)-1]; len(prev) > 0 {
			if last := prev[len(prev)-1]; last.entries[len(last.entries)-1].seq >= seg.entries[0].seq {
				return fmt.Errorf("tib: snapshot shard %d segments out of sequence order", ws.Shard)
			}
		}
		sh.segs = append(sh.segs[:len(sh.segs)-1], seg, sh.segs[len(sh.segs)-1])
		if staged.indexed && seg.byFlow == nil {
			rebuild = append(rebuild, seg)
		}
		if !staged.indexed {
			seg.byFlow, seg.byLink = nil, nil
		}
	}
	if !sameShape {
		sort.Slice(flat, func(i, j int) bool { return flat[i].seq < flat[j].seq })
		var err error
		if staged, err = s.buildFrom(flat); err != nil {
			return err
		}
	} else {
		rebuildIndexes(rebuild)
	}
	seq := hdr.Seq
	if seq < uint64(total) {
		seq = uint64(total) // corrupt-tolerant: never reuse live sequence space
	}
	staged.seq.Store(seq)
	staged.count.Store(total)
	s.swapFrom(staged)
	return nil
}

// validateSegment bounds-checks one wire segment so corrupt input fails
// with an error instead of an out-of-range panic — or, worse, silently
// wrong pruning — at query time.
func validateSegment(ws *wireSegment, shards int) error {
	if ws.Shard < 0 || ws.Shard >= shards {
		return fmt.Errorf("tib: snapshot segment names shard %d of %d", ws.Shard, shards)
	}
	if len(ws.Seqs) != len(ws.Recs) {
		return fmt.Errorf("tib: snapshot segment has %d seqs for %d records", len(ws.Seqs), len(ws.Recs))
	}
	if len(ws.Recs) == 0 {
		return fmt.Errorf("tib: snapshot contains an empty segment")
	}
	for i := 1; i < len(ws.Seqs); i++ {
		if ws.Seqs[i] <= ws.Seqs[i-1] {
			return fmt.Errorf("tib: snapshot segment sequence numbers not ascending")
		}
	}
	for i := range ws.Recs {
		// Declared time bounds must bracket every record: bounds
		// narrower than the data would make scans prune records that
		// exist — silent wrong answers, the worst failure mode.
		if ws.Recs[i].STime < ws.MinTime || ws.Recs[i].ETime > ws.MaxTime {
			return fmt.Errorf("tib: snapshot segment bounds [%v,%v] exclude record %d (%v..%v)",
				ws.MinTime, ws.MaxTime, i, ws.Recs[i].STime, ws.Recs[i].ETime)
		}
	}
	for _, idxs := range ws.ByFlow {
		for _, i := range idxs {
			if i < 0 || i >= len(ws.Recs) {
				return fmt.Errorf("tib: snapshot flow posting out of range")
			}
		}
	}
	for _, idxs := range ws.ByLink {
		for _, i := range idxs {
			if i < 0 || i >= len(ws.Recs) {
				return fmt.Errorf("tib: snapshot link posting out of range")
			}
		}
	}
	return nil
}

// buildFrom distributes entries (ascending global sequence order) into a
// fresh staged store — flow-hashed onto shards, sealed into segments by
// the store's own seal policy — and then rebuilds every segment's index
// in parallel, one goroutine per segment up to GOMAXPROCS. This replaces
// the old single-threaded re-Add loop: distribution is a cheap
// sequential pass, and the expensive part (posting-map construction) is
// what parallelises.
func (s *Store) buildFrom(entries []entry) (*Store, error) {
	staged := s.emptyClone()
	for i := range entries {
		if i > 0 && entries[i].seq <= entries[i-1].seq {
			return nil, fmt.Errorf("tib: snapshot records out of sequence order")
		}
		sh := staged.shardFor(entries[i].rec.Flow)
		seg := sh.active()
		if staged.shouldSeal(seg, &entries[i].rec) {
			seg.seal() // postings are nil here, so the bloom builds from entries
			seg = newSegment(false)
			sh.segs = append(sh.segs, seg)
		}
		seg.add(entries[i], false) // postings rebuilt below, in parallel
	}
	if staged.indexed {
		var segs []*segment
		for i := range staged.shards {
			for _, seg := range staged.shards[i].segs {
				if len(seg.entries) > 0 {
					segs = append(segs, seg)
				}
			}
		}
		rebuildIndexes(segs)
	}
	return staged, nil
}

// rebuildIndexes recomputes postings for the given segments in parallel.
func rebuildIndexes(segs []*segment) {
	if len(segs) == 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(segs) {
		workers = len(segs)
	}
	work := make(chan *segment)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seg := range work {
				seg.rebuildIndex()
			}
		}()
	}
	for _, seg := range segs {
		work <- seg
	}
	close(work)
	wg.Wait()
}

// swapFrom installs the staged store's contents under every shard lock at
// once, so concurrent readers see the old store or the new one — never a
// mix — and the sequence counter is only ever reset while no Add can be
// in flight. Cold segments of the replaced contents have their files
// removed (marked dropped first, so scans that captured them resolve as
// evicted-under-scan rather than corrupt).
func (s *Store) swapFrom(staged *Store) {
	// Per-segment byte accounting is maintained on every load path, so the
	// store total is the sum over the staged chains. Everything below the
	// smallest staged sequence is unknowable after the swap (the snapshot
	// does not say whether the writer ever had it), so the evicted-through
	// watermark moves there and SnapshotSince refuses deltas reaching
	// below it.
	var bytes int64
	minSeq := staged.seq.Load()
	for i := range staged.shards {
		for _, seg := range staged.shards[i].segs {
			bytes += seg.bytes
			if len(seg.entries) > 0 && seg.entries[0].seq-1 < minSeq {
				minSeq = seg.entries[0].seq - 1
			}
		}
	}
	var coldFiles []string
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	for i := range s.shards {
		for _, seg := range s.shards[i].segs {
			if seg.cold {
				seg.dropped.Store(true)
				coldFiles = append(coldFiles, seg.coldPath)
			}
		}
		s.shards[i].segs = staged.shards[i].segs
	}
	s.seq.Store(staged.seq.Load())
	s.count.Store(staged.count.Load())
	s.bytesTotal.Store(bytes)
	s.coldBytesTotal.Store(0)
	s.evictFloor.Store(0)
	s.spillFloor.Store(0)
	s.evictedThroughSeq.Store(minSeq)
	for i := range s.shards {
		s.shards[i].mu.Unlock()
	}
	for _, p := range coldFiles {
		os.Remove(p)
	}
}

// ApplyIncremental advances this store from a SnapshotSince stream. The
// stream may turn out to be a full Version-2 snapshot — the writer
// falls back to full when the requested watermark is unserveable — in
// which case the store is replaced wholesale, exactly as LoadSnapshot
// would. A Version-3 delta is reconciled per shard: local segments that
// the delta re-ships grown or re-cut (same starting sequence or later)
// are dropped and replaced; strictly older local segments are kept, so
// a standby may retain more lookback than the agent it mirrors.
//
// Like LoadSnapshot, application is atomic: the delta is fully decoded
// and validated first, and installed under every shard lock at once. A
// reconciliation that cannot be proven consistent (stripe mismatch,
// overlapping sequence ranges) fails with ErrIncompatibleDelta and
// leaves the store untouched — the caller re-pulls a full snapshot.
func (s *Store) ApplyIncremental(r io.Reader) error {
	br := bufio.NewReader(r)
	magic, err := br.Peek(len(snapshotMagic))
	if err != nil || !bytes.Equal(magic, []byte(snapshotMagic)) {
		return fmt.Errorf("tib: incremental snapshot missing v2 magic")
	}
	if _, err := br.Discard(len(snapshotMagic)); err != nil {
		return err
	}
	dec := gob.NewDecoder(br)
	var hdr snapshotHeader
	if err := dec.Decode(&hdr); err != nil {
		return fmt.Errorf("tib: snapshot header: %w", err)
	}
	switch hdr.Version {
	case 2:
		return s.loadV2Body(dec, hdr) // writer fell back to full
	case 3:
		return s.applyDelta(dec, hdr)
	default:
		return fmt.Errorf("tib: unsupported snapshot version %d", hdr.Version)
	}
}

// applyDelta decodes, validates and installs a Version-3 delta stream.
func (s *Store) applyDelta(dec *gob.Decoder, hdr snapshotHeader) error {
	if hdr.Shards != len(s.shards) {
		return fmt.Errorf("%w: delta written for %d shards, store has %d", ErrIncompatibleDelta, hdr.Shards, len(s.shards))
	}
	// Stage: decode every wire segment into a ready segment, grouped by
	// shard, before any lock is taken.
	incoming := make([][]*segment, len(s.shards))
	var rebuild []*segment
	for {
		var ws wireSegment
		if err := dec.Decode(&ws); err != nil {
			return fmt.Errorf("tib: incremental snapshot cut off mid-stream: %w", err)
		}
		if ws.Shard == -1 {
			break
		}
		if err := validateSegment(&ws, hdr.Shards); err != nil {
			return err
		}
		seg := &segment{
			sealed:  true,
			entries: make([]entry, len(ws.Recs)),
			byFlow:  ws.ByFlow,
			byLink:  ws.ByLink,
			minTime: ws.MinTime,
			maxTime: ws.MaxTime,
		}
		for i := range ws.Recs {
			seg.entries[i] = entry{seq: ws.Seqs[i], rec: ws.Recs[i]}
			seg.bytes += recSize(&ws.Recs[i])
		}
		seg.buildFilter()
		if prev := incoming[ws.Shard]; len(prev) > 0 && prev[len(prev)-1].lastSeq() >= seg.firstSeq() {
			return fmt.Errorf("tib: incremental snapshot shard %d segments out of sequence order", ws.Shard)
		}
		incoming[ws.Shard] = append(incoming[ws.Shard], seg)
		if s.indexed && seg.byFlow == nil {
			rebuild = append(rebuild, seg)
		}
		if !s.indexed {
			seg.byFlow, seg.byLink = nil, nil
		}
	}
	rebuildIndexes(rebuild)

	// Install under every shard lock at once, like swapFrom, so readers
	// see the store before or after the delta — never mid-application.
	var addedRecs, droppedRecs int64
	var addedBytes, droppedBytes, droppedCold int64
	var coldFiles []string
	for i := range s.shards {
		s.shards[i].mu.Lock()
	}
	unlock := func() {
		for i := range s.shards {
			s.shards[i].mu.Unlock()
		}
	}
	// A delta that starts beyond everything this store holds would leave
	// a hole between the local data and the shipped segments. With every
	// shard lock held the sequence counter is stable, so this check and
	// the per-shard cuts below see one consistent store.
	if hdr.Since > s.seq.Load() {
		unlock()
		return fmt.Errorf("%w: delta starts at seq %d, store ends at %d", ErrIncompatibleDelta, hdr.Since, s.seq.Load())
	}
	// Validate the reconciliation on every shard before mutating any.
	cuts := make([]int, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		ins := incoming[i]
		cuts[i] = len(sh.segs)
		if len(ins) == 0 {
			continue
		}
		in0 := ins[0].firstSeq()
		for j, seg := range sh.segs {
			if seg.recs() == 0 || seg.firstSeq() >= in0 {
				cuts[i] = j
				break
			}
		}
		if j := cuts[i]; j > 0 {
			if last := sh.segs[j-1]; last.recs() > 0 && last.lastSeq() >= in0 {
				unlock()
				return fmt.Errorf("%w: shard %d local records overlap delta start %d", ErrIncompatibleDelta, i, in0)
			}
		}
	}
	for i := range s.shards {
		sh := &s.shards[i]
		ins := incoming[i]
		if len(ins) == 0 {
			continue
		}
		for _, seg := range sh.segs[cuts[i]:] {
			droppedRecs += int64(seg.recs())
			droppedBytes += seg.bytes
			if seg.cold {
				droppedCold += seg.coldBytes
				seg.dropped.Store(true)
				coldFiles = append(coldFiles, seg.coldPath)
			}
		}
		kept := sh.segs[:cuts[i]:cuts[i]]
		if n := len(kept); n > 0 && !kept[n-1].sealed {
			// The old active segment survives the cut whole: freeze it
			// so the chain invariant (only the last segment unsealed)
			// holds once the delta's segments follow it.
			kept[n-1].seal()
			s.sealCount.Add(1)
		}
		for _, seg := range ins {
			addedRecs += int64(len(seg.entries))
			addedBytes += seg.bytes
		}
		sh.segs = append(append(kept, ins...), newSegment(s.indexed))
	}
	if hdr.Seq > s.seq.Load() {
		s.seq.Store(hdr.Seq)
	}
	s.count.Add(addedRecs - droppedRecs)
	s.bytesTotal.Add(addedBytes - droppedBytes)
	s.coldBytesTotal.Add(-droppedCold)
	unlock()
	for _, p := range coldFiles {
		os.Remove(p)
	}
	return nil
}

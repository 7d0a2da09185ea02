// Streamed records-op responses. A records query over a busy host can
// match hundreds of thousands of records; materialising them into one
// reply slice and then one wire frame makes the daemon's peak memory
// O(reply) per in-flight request. When the client accepts the wire
// encoding and the target can hand records out as its scan visits them
// (RecordStreamer), the /query handlers instead write the frame with a
// wire.QueryStreamWriter: records leave in bounded chunks as the scan
// produces them, the response flushes after every chunk so the
// controller's merge starts before the scan finishes, and the daemon
// never holds more than one chunk of the reply.
package rpc

import (
	"context"
	"errors"
	"net/http"

	"pathdump/internal/query"
	"pathdump/internal/types"
	"pathdump/internal/wire"
)

// RecordStreamer is an optional Target extension for backends that can
// hand matching records to a visitor as their scan runs, without
// materialising the reply; *agent.Agent and SnapshotTarget implement it.
// fn must not retain the record pointer past the call. The scan polls
// ctx and the returned error is the context's, so a vanished client
// releases the host mid-scan.
type RecordStreamer interface {
	StreamRecords(ctx context.Context, q query.Query, fn func(*types.Record)) error
}

// StreamRecords implements RecordStreamer: the store scan visits
// matching records directly, polling ctx between records of the
// cross-shard merge.
func (t SnapshotTarget) StreamRecords(ctx context.Context, q query.Query, fn func(*types.Record)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	v := t.view().WithContext(ctx)
	v.ScanRecords(query.PredicateOf(q), fn)
	return ctx.Err()
}

// streamQueryResponse serves a records op as a chunked wire frame when
// everything lines up — the op is OpRecords, the client accepted wire
// responses, and the target streams — and reports whether it handled
// the request. Any other combination returns false and the caller takes
// the materialised path.
//
// Once the first chunk is written the HTTP status is committed, so a
// mid-scan failure (in practice: the client hung up) cannot turn into an
// error status; the writer is abandoned instead, leaving a truncated
// frame the client's decoder rejects.
func streamQueryResponse(w http.ResponseWriter, r *http.Request, t Target, q query.Query, compress bool) bool {
	if q.Op != query.OpRecords || !wire.Accepted(r.Header.Get("Accept")) {
		return false
	}
	sr, ok := t.(RecordStreamer)
	if !ok {
		return false
	}
	ctx := r.Context()
	if err := ctx.Err(); err != nil {
		writeExecuteError(w, err)
		return true
	}
	var sc0, sp0 uint64
	ss, statsOK := t.(SegmentStatser)
	if statsOK {
		sc0, sp0 = ss.SegmentStats()
	}
	w.Header().Set("Content-Type", wire.ContentType)
	sw, err := wire.NewQueryStreamWriter(w, wire.Meta{RecordsScanned: t.TIBSize()}, q.Op, compress)
	if err != nil {
		// Nothing reached the wire yet; the client sees a clean error.
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return true
	}
	if f, ok := w.(http.Flusher); ok {
		sw.OnChunk = f.Flush
	}
	serr := sr.StreamRecords(ctx, q, func(rec *types.Record) {
		// Errors are sticky: once a flush fails, later appends no-op and
		// the scan winds down via its own ctx polls (the usual cause of a
		// failed flush is the client hanging up, which cancels ctx).
		_ = sw.Append(rec)
	})
	if serr == nil {
		serr = sw.Err()
	}
	if serr != nil {
		// The status line is long gone; truncation is the error signal.
		sw.Abort()
		return true
	}
	segScanned, segPruned := 0, 0
	if statsOK {
		sc1, sp1 := ss.SegmentStats()
		segScanned, segPruned = int(sc1-sc0), int(sp1-sp0)
	}
	if err := sw.Close(segScanned, segPruned); err != nil && !errors.Is(err, wire.ErrStreamClosed) {
		sw.Abort()
	}
	return true
}

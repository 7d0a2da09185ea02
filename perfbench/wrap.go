package main

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"

	"pathdump/internal/netsim"
	"pathdump/internal/query"
	"pathdump/internal/rpc"
	"pathdump/internal/tib"
	"pathdump/internal/types"
)

// callHeader carries the client-side span id of one HTTP round trip to
// the daemon, so the daemon's spans can name it as their parent. The
// program ignores headers it does not know.
const callHeader = "X-Perfbench-Call"

type spanKey struct{}

// spanFrom returns the id of the span a context was handed down under.
func spanFrom(ctx context.Context) (id, rid int64) {
	v, _ := ctx.Value(spanKey{}).([2]int64)
	return v[0], v[1]
}

// traceID renders a query span id as the controller's trace ID, which
// rides every HTTP request of that query.
func traceID(id int64) string { return strconv.FormatInt(id, 16) }

func parseTraceID(s string) int64 {
	id, _ := strconv.ParseInt(s, 16, 64)
	return id
}

// fullTarget is every optional interface rpc.SnapshotTarget implements.
// The servers pick their code path by type assertion, so a wrapper that
// lacked one of these would send traced requests down another path.
type fullTarget interface {
	rpc.Target
	rpc.TargetE
	rpc.ContextTarget
	rpc.InstallerE
	rpc.Snapshotter
	rpc.IncrementalSnapshotter
	rpc.SegmentStatser
	rpc.ColdStatser
	rpc.RecordStreamer
}

// timedTarget times the query calls a daemon makes into a host's store
// ("query.exec" spans) and passes everything else through.
type timedTarget struct {
	inner fullTarget
	tr    *tracer
}

// newTimedTarget wraps t, refusing targets that lack any of fullTarget's
// interfaces: the wrapper would implement more than they do.
func newTimedTarget(t rpc.Target, tr *tracer) (*timedTarget, error) {
	ft, ok := t.(fullTarget)
	if !ok {
		return nil, errors.New("perfbench: target does not implement every optional interface the timing wrapper does")
	}
	return &timedTarget{inner: ft, tr: tr}, nil
}

func (t *timedTarget) record(ctx context.Context, start, inner int64) {
	parent, rid := spanFrom(ctx)
	t.tr.add(span{name: "query.exec", id: t.tr.newID(), parent: parent, rid: rid, start: start, end: t.tr.now(), inner: inner})
}

func (t *timedTarget) Execute(q query.Query) query.Result {
	start := t.tr.now()
	defer t.record(context.Background(), start, 0)
	return t.inner.Execute(q)
}

func (t *timedTarget) ExecuteE(q query.Query) (query.Result, error) {
	start := t.tr.now()
	defer t.record(context.Background(), start, 0)
	return t.inner.ExecuteE(q)
}

func (t *timedTarget) ExecuteContext(ctx context.Context, q query.Query) (query.Result, error) {
	start := t.tr.now()
	defer t.record(ctx, start, 0)
	return t.inner.ExecuteContext(ctx, q)
}

// StreamRecords times the scan; the time spent in fn, which encodes
// records onto the wire, is the span's inner time ("wire.stream").
func (t *timedTarget) StreamRecords(ctx context.Context, q query.Query, fn func(*types.Record)) error {
	start := t.tr.now()
	var inner int64
	err := t.inner.StreamRecords(ctx, q, func(r *types.Record) {
		s := t.tr.now()
		fn(r)
		inner += t.tr.now() - s
	})
	t.record(ctx, start, inner)
	return err
}

func (t *timedTarget) Install(q query.Query, period types.Time) int {
	return t.inner.Install(q, period)
}
func (t *timedTarget) InstallE(q query.Query, period types.Time) (int, error) {
	return t.inner.InstallE(q, period)
}
func (t *timedTarget) Uninstall(id int) error                 { return t.inner.Uninstall(id) }
func (t *timedTarget) TIBSize() int                           { return t.inner.TIBSize() }
func (t *timedTarget) SegmentStats() (scanned, pruned uint64) { return t.inner.SegmentStats() }
func (t *timedTarget) ColdStats() tib.ColdStats               { return t.inner.ColdStats() }
func (t *timedTarget) WriteSnapshot(w io.Writer) error        { return t.inner.WriteSnapshot(w) }
func (t *timedTarget) WriteSnapshotSince(w io.Writer, since uint64) error {
	return t.inner.WriteSnapshotSince(w, since)
}

// serveTimed wraps a daemon's handler with an "rpc.serve" span per
// request. It hands its span id down the request context so the store
// calls the handler makes become its children. The ResponseWriter is
// passed through untouched, so streaming handlers keep their Flusher.
func serveTimed(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(callHeader), 10, 64)
		rid := parseTraceID(r.Header.Get(rpc.TraceHeader))
		id := tr.newID()
		start := tr.now()
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, [2]int64{id, rid})))
		tr.add(span{name: "rpc.serve", op: r.URL.Path, id: id, parent: parent, rid: rid, start: start, end: tr.now()})
	})
}

// timedRoundTripper records an "rpc.call" span per HTTP round trip the
// controller makes, from sending the request until the response body
// is read to the end or closed.
type timedRoundTripper struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *timedRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	rid := parseTraceID(req.Header.Get(rpc.TraceHeader))
	id := t.tr.newID()
	req = req.Clone(req.Context())
	req.Header.Set(callHeader, strconv.FormatInt(id, 10))
	s := span{name: "rpc.call", op: req.URL.Path, id: id, parent: rid, rid: rid, start: t.tr.now()}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		s.end = t.tr.now()
		t.tr.add(s)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		s.end = t.tr.now()
		t.tr.add(s)
	}}
	return resp, nil
}

// timedBody ends its round trip's span at EOF or Close, whichever
// comes first.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

// timedReceiver times a host agent's packet handling ("agent.receive"
// spans) under the simulator slice that delivered the packet.
type timedReceiver struct {
	inner  netsim.Receiver
	tr     *tracer
	parent *int64 // the running slice's span id; the simulator is single-threaded
}

func (r *timedReceiver) Receive(pkt *netsim.Packet) {
	start := r.tr.now()
	r.inner.Receive(pkt)
	r.tr.add(span{name: "agent.receive", id: r.tr.newID(), parent: *r.parent, start: start, end: r.tr.now()})
}

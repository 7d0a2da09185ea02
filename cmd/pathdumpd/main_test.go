package main

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"pathdump"
	"pathdump/internal/obs"
	"pathdump/internal/query"
	"pathdump/internal/rpc"
	"pathdump/internal/types"
)

// TestLiveDaemonStreamsRecords: the wrappers pathdumpd serves its agents
// through keep rpc.RecordStreamer, so a records query on a live daemon
// takes the streamed reply path instead of building the whole reply in
// memory. The injected-slow host stalls that streamed query and lets go
// as soon as the request is cancelled.
func TestLiveDaemonStreamsRecords(t *testing.T) {
	c, err := pathdump.NewFatTree(4, pathdump.Config{})
	if err != nil {
		t.Fatal(err)
	}
	const nrec = 50
	fast, slow := types.HostID(0), types.HostID(1)
	for _, h := range []types.HostID{fast, slow} {
		for i := 0; i < nrec; i++ {
			c.Agents[h].Store.Add(types.Record{
				Flow:  types.FlowID{SrcIP: types.IP(100 + i), DstIP: c.HostIP(h), SrcPort: uint16(2000 + i), DstPort: 80, Proto: types.ProtoTCP},
				Path:  types.Path{0, 8, 16},
				STime: types.Time(i), ETime: types.Time(i + 1), Bytes: 1000, Pkts: 1,
			})
		}
	}
	// The same composition main builds: lockedTarget per agent, the
	// -slow-host stall outside it.
	var simMu sync.Mutex
	targets := map[types.HostID]rpc.Target{
		fast: lockedTarget{t: c.Agents[fast], mu: &simMu},
		slow: &slowTarget{fullTarget: lockedTarget{t: c.Agents[slow], mu: &simMu}, delay: time.Minute},
	}
	for h, tg := range targets {
		if _, ok := tg.(rpc.RecordStreamer); !ok {
			t.Fatalf("host %v: served target %T is not an rpc.RecordStreamer", h, tg)
		}
	}
	srv := httptest.NewServer((&rpc.MultiAgentServer{Targets: targets}).Handler())
	defer srv.Close()
	tr := &rpc.HTTPTransport{URLs: map[types.HostID]string{fast: srv.URL, slow: srv.URL}}
	q := query.Query{Op: query.OpRecords, Link: types.AnyLink, Range: types.AllTime}

	// A traced records query: a buffered wire reply would carry the scan
	// span in its response header, a streamed one carries none.
	ctx := obs.ContextWithTrace(context.Background(), obs.NewTraceID())
	res, meta, err := tr.Query(ctx, fast, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != nrec {
		t.Fatalf("fast host returned %d records, want %d", len(res.Records), nrec)
	}
	if meta.Span != nil {
		t.Fatalf("records reply carried a buffered-path scan span; want a streamed reply:\n%s", meta.Span.Render())
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := tr.Query(ctx, slow, q)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("slow host answered a streamed records query without stalling (err %v)", err)
	case <-time.After(200 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled records query: err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled records query to the slow host never returned")
	}
}

// Tests for the request side of the wire negotiation: binary request
// bodies against a daemon, the JSON bodies of JSONOnly clients, and
// shedding an abandoned streamed reply.
package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"pathdump/internal/query"
	"pathdump/internal/types"
	"pathdump/internal/wire"
)

// ctCounter wraps a handler and counts request bodies by Content-Type,
// so tests can assert which encoding actually crossed the wire.
type ctCounter struct {
	h  http.Handler
	mu sync.Mutex
	// wireBodies and jsonBodies count POST bodies by encoding.
	wireBodies, jsonBodies int
}

func (c *ctCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	if wire.IsWire(r.Header.Get("Content-Type")) {
		c.wireBodies++
	} else {
		c.jsonBodies++
	}
	c.mu.Unlock()
	c.h.ServeHTTP(w, r)
}

func (c *ctCounter) counts() (wireBodies, jsonBodies int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wireBodies, c.jsonBodies
}

// TestWireRequestRoundTrip pins the binary request path end to end: the
// daemon must actually receive a wire-encoded body and decode every
// field the JSON body carries, and a JSONOnly client's JSON body must
// come back with the same answer.
func TestWireRequestRoundTrip(t *testing.T) {
	targets := map[types.HostID]Target{7: SnapshotTarget{Store: seedStore(7, 25)}}
	cc := &ctCounter{h: (&MultiAgentServer{Targets: targets}).Handler()}
	srv := httptest.NewServer(cc)
	defer srv.Close()

	tr := &HTTPTransport{URLs: map[types.HostID]string{7: srv.URL}}
	q := query.Query{Op: query.OpRecords, Link: types.AnyLink, Range: types.TimeRange{From: 0, To: 10 * types.Millisecond}}
	res, _, err := tr.Query(context.Background(), 7, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("no records through the wire request path")
	}
	jsonTr := &HTTPTransport{URLs: map[types.HostID]string{7: srv.URL}, JSONOnly: true}
	jres, _, err := jsonTr.Query(context.Background(), 7, q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Records, jres.Records) {
		t.Fatal("wire-request and JSON-request paths disagree on the same time-bounded query")
	}
	if w, j := cc.counts(); w != 1 || j != 1 {
		t.Fatalf("daemon saw %d wire / %d JSON request bodies, want one of each", w, j)
	}
}

// TestStreamClientDisconnectNoLeak starts a streamed records response,
// abandons it mid-frame, and checks the daemon sheds the request — no
// goroutine keeps scanning for a client that hung up (run under -race in
// CI alongside the other leak tests).
func TestStreamClientDisconnectNoLeak(t *testing.T) {
	host := types.HostID(3)
	srv := httptest.NewServer((&MultiAgentServer{Targets: map[types.HostID]Target{host: SnapshotTarget{Store: seedStore(3, 30_000)}}}).Handler())
	defer srv.Close()
	before := runtime.NumGoroutine()

	for i := 0; i < 4; i++ {
		body, _ := json.Marshal(QueryRequest{Host: &host, Query: query.Query{Op: query.OpRecords, Link: types.AnyLink, Range: types.AllTime}})
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/query", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept", wire.ContentType+", application/json")
		resp, err := DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if !wire.IsWire(resp.Header.Get("Content-Type")) {
			t.Fatalf("expected a streamed wire reply, got %q", resp.Header.Get("Content-Type"))
		}
		// Read one chunk's worth, then hang up mid-frame.
		if _, err := io.ReadFull(resp.Body, make([]byte, 8<<10)); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	DefaultTransport.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after mid-stream disconnects: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

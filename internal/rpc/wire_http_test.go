// Tests for the binary wire data plane: content negotiation across
// client/server encoding pairings, body-size limits, well-formed error
// responses, alarm drop accounting, and racy fan-out over the pooled
// transport.
package rpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pathdump/internal/controller"
	"pathdump/internal/query"
	"pathdump/internal/tib"
	"pathdump/internal/types"
	"pathdump/internal/wire"
)

// seedStore fills a store with records for a deterministic host-specific
// flow population.
func seedStore(host int, nrec int) *tib.Store {
	st := tib.NewStore()
	for i := 0; i < nrec; i++ {
		st.Add(types.Record{
			Flow: types.FlowID{
				SrcIP:   types.IP(host<<16 | i%17),
				DstIP:   types.IP(host + 1),
				SrcPort: uint16(1000 + i%29),
				DstPort: 80,
				Proto:   types.ProtoTCP,
			},
			Path:  types.Path{types.SwitchID(host), types.SwitchID(host + 100), types.SwitchID(i % 7)},
			STime: types.Time(i) * types.Millisecond,
			ETime: types.Time(i+3) * types.Millisecond,
			Bytes: uint64(1000 + i),
			Pkts:  uint64(1 + i%5),
		})
	}
	return st
}

// declineWire stands in for a server that never answers in the wire
// encoding (say, behind a proxy that rewrites Accept): it drops the
// client's offer before the daemon sees it, so replies come back JSON
// while request bodies still decode by their Content-Type.
func declineWire(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Del("Accept")
		h.ServeHTTP(w, r)
	})
}

// multiDaemon starts one MultiAgentServer over nhosts snapshot targets
// starting at host ID base; jsonReplies puts it behind declineWire.
func multiDaemon(t *testing.T, base, nhosts, nrec int, jsonReplies, compress bool) (*httptest.Server, []types.HostID) {
	t.Helper()
	targets := make(map[types.HostID]Target)
	var hosts []types.HostID
	for i := 0; i < nhosts; i++ {
		h := types.HostID(base + i)
		targets[h] = SnapshotTarget{Store: seedStore(base+i, nrec)}
		hosts = append(hosts, h)
	}
	h := (&MultiAgentServer{Targets: targets, WireCompress: compress}).Handler()
	if jsonReplies {
		h = declineWire(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, hosts
}

// TestWireFallbackMatrix runs the same query across every client/server
// encoding pairing — a binary or -wire json client against a server
// that answers wire, one that answers JSON, and a compressing one — and
// requires identical results from all of them, through both the
// per-host and the batched paths.
func TestWireFallbackMatrix(t *testing.T) {
	type mode struct {
		name       string
		jsonClient bool
		jsonServer bool
		compress   bool
	}
	modes := []mode{
		{name: "binary-client-wire-server"},
		{name: "binary-client-json-server", jsonServer: true},
		{name: "json-client-wire-server", jsonClient: true},
		{name: "json-client-json-server", jsonClient: true, jsonServer: true},
		{name: "binary-client-compressing-server", compress: true},
	}
	q := query.Query{Op: query.OpRecords, Link: types.AnyLink, Range: types.AllTime}
	var want []controller.BatchReply
	for _, m := range modes {
		t.Run(m.name, func(t *testing.T) {
			srv, hosts := multiDaemon(t, 10, 4, 50, m.jsonServer, m.compress)
			urls := make(map[types.HostID]string)
			for _, h := range hosts {
				urls[h] = srv.URL
			}
			tr := &HTTPTransport{URLs: urls, JSONOnly: m.jsonClient}

			// Batched path.
			replies, err := tr.QueryMany(context.Background(), hosts, q, 4)
			if err != nil {
				t.Fatal(err)
			}
			for i := range replies {
				if replies[i].Err != nil {
					t.Fatalf("host %v: %v", replies[i].Host, replies[i].Err)
				}
				if len(replies[i].Result.Records) != 50 {
					t.Fatalf("host %v: %d records, want 50", replies[i].Host, len(replies[i].Result.Records))
				}
			}
			// Per-host path must agree with the batch.
			res, meta, err := tr.Query(context.Background(), hosts[0], q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Records, replies[0].Result.Records) {
				t.Fatal("per-host /query and /batchquery disagree")
			}
			if meta.RecordsScanned != 50 {
				t.Fatalf("meta.RecordsScanned = %d, want 50", meta.RecordsScanned)
			}
			if want == nil {
				want = replies
			} else {
				for i := range replies {
					if !reflect.DeepEqual(replies[i].Result.Records, want[i].Result.Records) {
						t.Fatalf("mode %s host %v differs from baseline mode", m.name, replies[i].Host)
					}
				}
			}
		})
	}
}

// TestNegotiationHeaders checks the raw HTTP contract: the response
// Content-Type follows the Accept offer exactly.
func TestNegotiationHeaders(t *testing.T) {
	host := types.HostID(1)
	srv := httptest.NewServer((&MultiAgentServer{Targets: map[types.HostID]Target{host: SnapshotTarget{Store: seedStore(1, 10)}}}).Handler())
	defer srv.Close()

	post := func(accept string) *http.Response {
		t.Helper()
		body, _ := json.Marshal(QueryRequest{Host: &host, Query: query.Query{Op: query.OpRecords, Link: types.AnyLink}})
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/query", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := post(wire.ContentType + ", application/json"); !wire.IsWire(resp.Header.Get("Content-Type")) {
		t.Fatalf("wire offer answered with %q", resp.Header.Get("Content-Type"))
	} else if _, res, err := wire.ReadQuery(resp.Body); err != nil || len(res.Records) != 10 {
		t.Fatalf("wire body: res=%v err=%v", res, err)
	}
	if resp := post(""); !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		t.Fatalf("no offer answered with %q", resp.Header.Get("Content-Type"))
	} else {
		var qr QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil || len(qr.Result.Records) != 10 {
			t.Fatalf("json body: %v err=%v", qr, err)
		}
	}
}

// TestBodyLimit413 exercises the MaxBytesReader fix: an oversized body
// answers 413 with an explicit message (not the old 400 "unexpected
// EOF"), and the cap is configurable per server.
func TestBodyLimit413(t *testing.T) {
	host := types.HostID(1)
	targets := map[types.HostID]Target{host: SnapshotTarget{Store: tib.NewStore()}}
	srv := httptest.NewServer((&MultiAgentServer{Targets: targets, MaxBodyBytes: 1024}).Handler())
	defer srv.Close()

	big := QueryRequest{Host: &host, Query: query.Query{Op: query.OpConformance, Avoid: make([]types.SwitchID, 4000)}}
	body, _ := json.Marshal(big)
	if len(body) <= 1024 {
		t.Fatalf("test body too small: %d", len(body))
	}
	resp, err := http.Post(srv.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	msg, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(msg), "1024-byte limit") {
		t.Fatalf("413 message %q should name the limit", msg)
	}

	// A raised cap accepts the same body.
	srv2 := httptest.NewServer((&MultiAgentServer{Targets: targets, MaxBodyBytes: 1 << 20}).Handler())
	defer srv2.Close()
	resp2, err := http.Post(srv2.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status with raised cap = %d, want 200", resp2.StatusCode)
	}
}

// TestEncodeFailureWellFormed pins the buffered-encode fix: a value JSON
// cannot marshal yields a clean 500 error response, not a 200 with a
// half-written body and an error message glued on.
func TestEncodeFailureWellFormed(t *testing.T) {
	rec := httptest.NewRecorder()
	encode(rec, map[string]float64{"x": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if strings.Contains(rec.Body.String(), "{") {
		t.Fatalf("error body contains partial JSON: %q", rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		t.Fatalf("error response mislabelled as JSON (%q)", ct)
	}
}

// TestAlarmClientDropped covers the drop accounting: transport failures
// and non-2xx answers both count, and non-2xx surfaces as *StatusError.
func TestAlarmClientDropped(t *testing.T) {
	boom := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "controller on fire", http.StatusInternalServerError)
	}))
	defer boom.Close()

	ac := &AlarmClient{URL: boom.URL}
	err := ac.RaiseAlarmContext(context.Background(), types.Alarm{Reason: types.ReasonLoop})
	var se *StatusError
	if err == nil || !errors.As(err, &se) || se.Code != http.StatusInternalServerError {
		t.Fatalf("err = %v, want *StatusError 500", err)
	}
	if ac.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", ac.Dropped())
	}

	// Transport failure (nothing listening) counts too, via the
	// contextless path.
	dead := &AlarmClient{URL: "http://127.0.0.1:1", Timeout: 200 * time.Millisecond}
	dead.RaiseAlarm(types.Alarm{Reason: types.ReasonLoop})
	if dead.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", dead.Dropped())
	}

	// Successful delivery does not count.
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write([]byte("{}"))
	}))
	defer ok.Close()
	ac2 := &AlarmClient{URL: ok.URL}
	if err := ac2.RaiseAlarmContext(context.Background(), types.Alarm{}); err != nil {
		t.Fatal(err)
	}
	if ac2.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", ac2.Dropped())
	}
}

// TestPooledFanoutNoLeak hammers the pooled transport from many
// goroutines (run under -race in CI) and then checks that no goroutines
// outlive the storm once idle connections are dropped.
func TestPooledFanoutNoLeak(t *testing.T) {
	srv, hosts := multiDaemon(t, 40, 8, 30, false, false)
	urls := make(map[types.HostID]string)
	for _, h := range hosts {
		urls[h] = srv.URL
	}
	tr := &HTTPTransport{URLs: urls}
	before := runtime.NumGoroutine()

	q := query.Query{Op: query.OpRecords, Link: types.AnyLink, Range: types.AllTime}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if w%2 == 0 {
					replies, err := tr.QueryMany(context.Background(), hosts, q, 8)
					if err != nil {
						errs <- err
						return
					}
					for _, rep := range replies {
						if rep.Err != nil {
							errs <- rep.Err
							return
						}
					}
				} else {
					h := hosts[(w+i)%len(hosts)]
					if _, _, err := tr.Query(context.Background(), h, q); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	DefaultTransport.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestQueryManyMetaOverWire makes sure per-host telemetry survives the
// binary batch path byte-for-byte against the JSON path.
func TestQueryManyMetaOverWire(t *testing.T) {
	srv, hosts := multiDaemon(t, 70, 3, 40, false, false)
	urls := make(map[types.HostID]string)
	for _, h := range hosts {
		urls[h] = srv.URL
	}
	q := query.Query{Op: query.OpRecords, Link: types.AnyLink, Range: types.TimeRange{From: 0, To: 5 * types.Millisecond}}
	binary, err := (&HTTPTransport{URLs: urls}).QueryMany(context.Background(), hosts, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	jsonR, err := (&HTTPTransport{URLs: urls, JSONOnly: true}).QueryMany(context.Background(), hosts, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range binary {
		if binary[i].Meta != jsonR[i].Meta {
			t.Fatalf("host %v meta differs: wire %+v json %+v", hosts[i], binary[i].Meta, jsonR[i].Meta)
		}
		if binary[i].Meta.RecordsScanned == 0 {
			t.Fatalf("host %v: telemetry lost", hosts[i])
		}
	}
}
